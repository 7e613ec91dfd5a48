package xsim

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// This file keeps the backend-selection surface that bench/ compiles
// against. There is one simulator, the in-process core New builds;
// everything else in the module calls New and holds a *Simulator.

// Backend names a simulator. bench/ is its only caller.
type Backend string

// BackendInterp names the in-process core, the only simulator.
const BackendInterp Backend = "interp"

// Backends lists the simulators: interp alone. bench/ is its only caller.
func Backends() []Backend { return []Backend{BackendInterp} }

// Engine is the view of a simulator that bench/ drives; *Simulator is its
// only implementation and bench/ its only caller.
type Engine interface {
	Load(p *asm.Program) error
	Run(limit int64) error
	Halted() bool
	Err() error
	Cycle() uint64
	Stats() Stats
	Snapshot() map[string][]bitvec.Value
	Close() error
}

// Snapshot captures every storage element of the simulator's state; it is
// the Engine form of State().Snapshot().
func (sim *Simulator) Snapshot() map[string][]bitvec.Value { return sim.st.Snapshot() }

// Close is a no-op that completes Engine.
func (sim *Simulator) Close() error { return nil }

var _ Engine = (*Simulator)(nil)

// EngineInfo reports the backend NewEngine built. bench/ is its only
// caller.
type EngineInfo struct {
	Used Backend
}

// NewEngine returns New(d) for the backend "" or interp and an error for
// any other name. bench/ is its only caller.
func NewEngine(d *isdl.Description, b Backend) (Engine, EngineInfo, error) {
	if b != "" && b != BackendInterp {
		return nil, EngineInfo{}, fmt.Errorf("xsim: unknown backend %q (want interp)", b)
	}
	return New(d), EngineInfo{Used: BackendInterp}, nil
}
