// Package suite is the workload registry behind the paper's evaluation:
// named kernels with per-workload reference outputs, runnable on every
// machine in the zoo (internal/machines.Zoo) and on every xsim backend,
// plus the differential fuzz gauntlet that cross-checks the whole
// generated-tool pipeline on random machines.
//
// A workload is either portable kernel-language source (compiled by the
// retargetable compiler for any classifiable machine; arrays live in the
// DATA placeholder storage that LoadKernel resolves per machine) or
// machine-specific assembly (the hand-scheduled SPAM/SPAM2 DSP kernels the
// Table 1 measurements use). Every workload carries the knowledge needed to
// verify its result: an output region and a reference, either an explicit
// expected vector or the golden kernel interpreter (ref.go).
//
//	suite.Register(suite.Workload{Name: "dot", Kernel: src, Tags: []string{"dsp"}})
//	res, err := suite.Run(w, "riscv5", suite.Options{Backend: xsim.BackendAOT})
//
// The experiments layer consumes the registry through RunSuite; cmd/paper
// renders it with -suite and fuzzes it with -gauntlet.
package suite

import (
	"fmt"
	"sort"
	"sync"
)

// Out locates a workload's output region.
type Out struct {
	// Array names an output array of a kernel-language workload; LoadKernel
	// resolves it to a storage region. Empty for asm workloads.
	Array string
	// Storage, Base and N locate the region directly (asm workloads; a
	// register-file output like SPAM's R8 is Storage "RF").
	Storage string
	Base    int
	N       int
}

// Workload is one registered benchmark.
type Workload struct {
	// Name is the unique registry key.
	Name string
	// Machine pins the workload to one zoo machine (asm workloads). Empty
	// means portable kernel-language source, runnable on any machine the
	// retargetable compiler can target.
	Machine string
	// Kernel is kernel-language source with arrays declared in the DATA
	// placeholder storage (resolved per machine by LoadKernel).
	Kernel string
	// Asm generates machine-specific assembly text (the alternative to
	// Kernel; requires Machine).
	Asm func() string
	// Out is the output region reference checking reads. For kernel
	// workloads, Out.Array (default "out") names the output array.
	Out Out
	// RefOutput returns the expected output words, already truncated to
	// the output storage's width. Nil for kernel workloads: the golden
	// kernel interpreter computes the reference at the target's width.
	RefOutput func() []uint64
	// Tags classify the workload for Filter ("dsp", "sort", "asm", ...).
	Tags []string
}

// HasTag reports whether the workload carries the tag.
func (w *Workload) HasTag(tag string) bool {
	for _, t := range w.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Filter selects registered workloads.
type Filter struct {
	// Name keeps only the named workload (empty: all).
	Name string
	// Tag keeps only workloads carrying the tag (empty: all).
	Tag string
}

// Match reports whether the workload passes the filter.
func (f Filter) Match(w *Workload) bool {
	if f.Name != "" && w.Name != f.Name {
		return false
	}
	if f.Tag != "" && !w.HasTag(f.Tag) {
		return false
	}
	return true
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Workload{}
	regOrder []string
)

// Register adds a workload to the registry. It returns an error for a
// duplicate name or an inconsistent definition (exactly one of Kernel and
// Asm; Asm requires Machine and an explicit Out and RefOutput).
func Register(w Workload) error {
	if w.Name == "" {
		return fmt.Errorf("suite: workload needs a name")
	}
	if (w.Kernel == "") == (w.Asm == nil) {
		return fmt.Errorf("suite: workload %s: exactly one of Kernel and Asm", w.Name)
	}
	if w.Asm != nil {
		if w.Machine == "" {
			return fmt.Errorf("suite: workload %s: Asm requires Machine", w.Name)
		}
		if w.Out.Storage == "" || w.Out.N == 0 {
			return fmt.Errorf("suite: workload %s: Asm requires an explicit Out region", w.Name)
		}
		if w.RefOutput == nil {
			return fmt.Errorf("suite: workload %s: Asm requires RefOutput", w.Name)
		}
	}
	if w.Kernel != "" && w.Out.Array == "" {
		w.Out.Array = "out"
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[w.Name]; dup {
		return fmt.Errorf("suite: duplicate workload %s", w.Name)
	}
	registry[w.Name] = &w
	regOrder = append(regOrder, w.Name)
	return nil
}

// MustRegister is Register that panics on error (for init-time seeding).
func MustRegister(w Workload) {
	if err := Register(w); err != nil {
		panic(err)
	}
}

// Get returns the named workload.
func Get(name string) (*Workload, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	w, ok := registry[name]
	if !ok {
		names := make([]string, 0, len(registry))
		for n := range registry {
			names = append(names, n)
		}
		sort.Strings(names)
		return nil, fmt.Errorf("suite: unknown workload %q (have %v)", name, names)
	}
	return w, nil
}

// All returns the registered workloads passing the filter, in registration
// order.
func All(f Filter) []*Workload {
	regMu.RLock()
	defer regMu.RUnlock()
	var out []*Workload
	for _, name := range regOrder {
		if w := registry[name]; f.Match(w) {
			out = append(out, w)
		}
	}
	return out
}

// Names returns the names of the workloads passing the filter, in
// registration order.
func Names(f Filter) []string {
	ws := All(f)
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}
