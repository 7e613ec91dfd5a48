package suite

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// DefaultLimit is the per-run instruction bound: generous for every seeded
// kernel (the largest needs a few thousand instructions) while keeping a
// runaway program from hanging the suite.
const DefaultLimit = 2_000_000

// Result is one verified workload run.
type Result struct {
	Workload string   `json:"workload"`
	Machine  string   `json:"machine"`
	Tags     []string `json:"tags,omitempty"`

	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	DataStalls   uint64 `json:"data_stalls"`
	StructStalls uint64 `json:"struct_stalls"`

	// Out and Ref are the observed and expected output regions (always
	// equal when the run returns without error — a mismatch is an error).
	Out []uint64 `json:"out"`
	Ref []uint64 `json:"ref"`

	Elapsed time.Duration `json:"elapsed_ns"`
	MIPS    float64       `json:"mips"`
}

// Run compiles (or generates), assembles, simulates and reference-checks
// the workload on its pinned machine (asm workloads) or on the named zoo
// machine. Incompatible combinations return *Unsupported; any other error —
// including a reference mismatch — is a real failure.
func Run(w *Workload, machine string) (*Result, error) {
	if w.Machine != "" && machine != "" && machine != w.Machine {
		return nil, &Unsupported{Workload: w.Name, Machine: machine,
			Err: fmt.Errorf("asm workload pinned to machine %s", w.Machine)}
	}
	if machine == "" {
		machine = w.Machine
	}
	if machine == "" {
		return nil, fmt.Errorf("suite: workload %s: no machine named", w.Name)
	}
	d, err := machines.ByName(machine)
	if err != nil {
		return nil, err
	}
	return RunOn(w, d, machine)
}

// RunOn is Run against an already-parsed description, such as a randomly
// generated machine rather than a zoo member.
func RunOn(w *Workload, d *isdl.Description, machine string) (*Result, error) {
	prog, out, ref, err := Prepare(w, d)
	if err != nil {
		return nil, err
	}

	sim := xsim.New(d)
	if err := sim.Load(prog); err != nil {
		return nil, fmt.Errorf("suite: %s on %s: load: %w", w.Name, machine, err)
	}
	start := time.Now()
	if err := sim.Run(DefaultLimit); err != nil {
		return nil, fmt.Errorf("suite: %s on %s: run: %w", w.Name, machine, err)
	}
	elapsed := time.Since(start)
	if err := sim.Err(); err != nil {
		return nil, fmt.Errorf("suite: %s on %s: faulted: %w", w.Name, machine, err)
	}
	if !sim.Halted() {
		return nil, fmt.Errorf("suite: %s on %s: did not halt within %d instructions", w.Name, machine, int64(DefaultLimit))
	}

	got, err := extractRegion(sim, d, out)
	if err != nil {
		return nil, fmt.Errorf("suite: %s on %s: %w", w.Name, machine, err)
	}
	if err := compareOutputs(got, ref); err != nil {
		return nil, fmt.Errorf("suite: %s on %s: reference mismatch at %s[%d..]: %w",
			w.Name, machine, out.Storage, out.Base, err)
	}

	st := sim.Stats()
	res := &Result{
		Workload:     w.Name,
		Machine:      machine,
		Tags:         w.Tags,
		Cycles:       st.Cycles,
		Instructions: st.Instructions,
		DataStalls:   st.DataStalls,
		StructStalls: st.StructStalls,
		Out:          got,
		Ref:          ref,
		Elapsed:      elapsed,
	}
	if s := elapsed.Seconds(); s > 0 {
		res.MIPS = float64(st.Instructions) / s / 1e6
	}
	return res, nil
}

// Prepare builds the workload's assembled program, resolved output region
// and reference output for the machine, without running anything — shared
// by Run, the gauntlet (which runs the simulator and the Verilog model over
// one program) and the benchmarks.
func Prepare(w *Workload, d *isdl.Description) (*asm.Program, Out, []uint64, error) {
	if w.Asm != nil {
		p, err := asm.Assemble(d, w.Asm())
		if err != nil {
			return nil, Out{}, nil, fmt.Errorf("suite: assemble %s: %w", w.Name, err)
		}
		return p, w.Out, w.RefOutput(), nil
	}
	lk, err := LoadKernel(d, w.Kernel)
	if err != nil {
		if u, ok := err.(*Unsupported); ok {
			u.Workload = w.Name
		}
		return nil, Out{}, nil, err
	}
	out, err := w.OutRegion(lk)
	if err != nil {
		return nil, Out{}, nil, err
	}
	var ref []uint64
	if w.RefOutput != nil {
		ref = w.RefOutput()
	} else {
		ref, err = Reference(lk, out.Array)
		if err != nil {
			return nil, Out{}, nil, err
		}
	}
	return lk.Program, out, ref, nil
}

// extractRegion reads the output region from the simulator's final state.
func extractRegion(sim *xsim.Simulator, d *isdl.Description, out Out) ([]uint64, error) {
	snap := sim.Snapshot()
	vals, ok := snap[out.Storage]
	if !ok {
		return nil, fmt.Errorf("no storage %s in snapshot", out.Storage)
	}
	if out.Base+out.N > len(vals) {
		return nil, fmt.Errorf("output region %s[%d..%d] exceeds depth %d",
			out.Storage, out.Base, out.Base+out.N, len(vals))
	}
	st := d.StorageByName[out.Storage]
	if st != nil && st.Width > 64 {
		return nil, fmt.Errorf("output storage %s wider than 64 bits", out.Storage)
	}
	got := make([]uint64, out.N)
	for i := range got {
		got[i] = vals[out.Base+i].Uint64()
	}
	return got, nil
}

func compareOutputs(got, want []uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("got %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("index %d: got %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}
