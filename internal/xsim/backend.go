package xsim

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// This file defines the simulator backends. Both produce bit-identical
// architectural results at different speeds:
//
//	interp  the in-process core (eval.go), specialized at decode time — the
//	        reference semantics and the default
//	aot     ahead-of-time generated Go, natively compiled per description
//	        (internal/gensim) — the analogue of the paper's generated,
//	        natively compiled C simulators (§3.3, §6.2)
//
// The aot backend needs a Go toolchain at runtime; NewEngine falls back to
// interp instead of failing, reporting the reason, so every caller keeps
// working on toolchain-less hosts.

// Backend names one simulator execution strategy.
type Backend string

const (
	// BackendInterp runs the in-process core (the default).
	BackendInterp Backend = "interp"
	// BackendAOT generates, builds and runs specialized Go for the
	// description (internal/gensim), falling back to interp when no
	// toolchain is available.
	BackendAOT Backend = "aot"
)

// Backends lists the selectable backends, the default first.
func Backends() []Backend { return []Backend{BackendInterp, BackendAOT} }

// ParseBackend validates a backend name; the empty string selects the
// default (interp).
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "":
		return BackendInterp, nil
	case BackendInterp, BackendAOT:
		return Backend(s), nil
	}
	return "", fmt.Errorf("xsim: unknown backend %q (want interp or aot)", s)
}

// Engine is the backend-independent view of one simulator instance: load a
// program, run it, observe the architectural results. All backends are
// bit-identical in Stats, Cycle and Snapshot for the same program (the
// differential gauntlet in internal/gensim enforces it).
type Engine interface {
	// Load loads an assembled program and resets architectural state.
	Load(p *asm.Program) error
	// Run executes until halt or limit instructions (limit <= 0: no limit).
	Run(limit int64) error
	// Halted reports whether the machine stopped (halt storage or fault).
	Halted() bool
	// Err returns the fault that halted the machine, if any.
	Err() error
	// Cycle returns the current cycle count.
	Cycle() uint64
	// Stats returns a snapshot of the architectural statistics gathered
	// so far; later calls on the engine never change it.
	Stats() Stats
	// Perf returns the simulator's own performance counters.
	Perf() PerfReport
	// Snapshot captures every storage element (for co-simulation checks).
	Snapshot() map[string][]bitvec.Value
	// Close releases backend resources (subprocesses for aot); the engine
	// is unusable afterwards.
	Close() error
}

// Snapshot captures every storage element of the simulator's state; it is
// the Engine form of State().Snapshot().
func (sim *Simulator) Snapshot() map[string][]bitvec.Value { return sim.st.Snapshot() }

// Close releases the simulator (a no-op for the in-process core).
func (sim *Simulator) Close() error { return nil }

var _ Engine = (*Simulator)(nil)

// aotFactory builds an aot engine; it is registered by internal/gensim's
// init so that xsim never imports the generator (no import cycle).
var aotFactory func(d *isdl.Description) (Engine, error)

// RegisterAOT installs the aot engine constructor. Called from
// internal/gensim; last registration wins.
func RegisterAOT(f func(d *isdl.Description) (Engine, error)) { aotFactory = f }

// EngineInfo reports which backend a NewEngine call actually produced.
type EngineInfo struct {
	Requested Backend
	Used      Backend
	// FallbackReason is non-empty when Used != Requested.
	FallbackReason string
}

// NewEngine builds a simulation engine for the requested backend, falling
// back from aot to interp when the request cannot be satisfied: no gensim
// registered, no Go toolchain, or a description the generator does not
// support. The returned error is non-nil only for an invalid backend name —
// fallback is not an error.
func NewEngine(d *isdl.Description, b Backend) (Engine, EngineInfo, error) {
	if b == "" {
		b = BackendInterp
	}
	info := EngineInfo{Requested: b, Used: b}
	switch b {
	case BackendInterp:
		return New(d), info, nil
	case BackendAOT:
		if aotFactory == nil {
			info.Used = BackendInterp
			info.FallbackReason = "aot backend not linked in (import repro/internal/gensim)"
			return New(d), info, nil
		}
		eng, err := aotFactory(d)
		if err != nil {
			info.Used = BackendInterp
			info.FallbackReason = err.Error()
			return New(d), info, nil
		}
		return eng, info, nil
	}
	return nil, info, fmt.Errorf("xsim: unknown backend %q", b)
}
