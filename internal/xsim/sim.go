// Package xsim is the instruction-level simulator of the paper's GENSIM
// system (§3): cycle-accurate and bit-true by construction. Where the
// original emitted C source per architecture and linked it against a common
// library, this implementation instantiates a simulator directly from the
// parsed ISDL description; the structure (Figure 2) is the same — scheduler,
// state, state monitors, off-line disassembly at load time, and a processing
// core interpreting the RTL of each operation.
//
// Cycle accounting follows §3.3.3. There is no explicit pipeline model.
// Each instruction issues at the earliest cycle that satisfies:
//
//   - every field's functional unit is free (the Usage timing parameter),
//   - no pending latency-delayed write-back targets a location the
//     instruction reads (the Latency timing parameter); the bubbles inserted
//     are the stall cycles the paper computes from the static instruction
//     stream, realized here as an interlock at issue time so they are also
//     exact around branches.
//
// A write by an operation with Latency L issued at cycle t commits at the
// end of cycle t+L−1 and is visible to instructions issuing at t+L or later.
// Writes to the program counter always take effect immediately (control
// flow has no write-back latency). Disabling the stall model (ablation C)
// issues back-to-back and lets consumers read stale values, which is what
// interlock-free hardware would do.
package xsim

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
	"repro/internal/state"
)

// Stats are the utilization statistics the evaluation loop of Figure 1
// feeds back into architecture improvement.
type Stats struct {
	Cycles       uint64
	Instructions uint64
	DataStalls   uint64
	StructStalls uint64
	Reads        uint64
	Writes       uint64
	// OpCounts counts executed operations by qualified name.
	OpCounts map[string]uint64
	// FieldIssue counts, per field, the instructions whose slot held an
	// operation with architectural effect (a non-empty action) — the
	// functional-unit utilization measure.
	FieldIssue []uint64
}

// Utilization returns each field's busy fraction over the executed
// instructions.
func (s Stats) Utilization() []float64 {
	out := make([]float64, len(s.FieldIssue))
	if s.Instructions == 0 {
		return out
	}
	for i, n := range s.FieldIssue {
		out[i] = float64(n) / float64(s.Instructions)
	}
	return out
}

// Summary renders the statistics as text.
func (s Stats) Summary(d *isdl.Description) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles:        %d\n", s.Cycles)
	fmt.Fprintf(&sb, "instructions:  %d\n", s.Instructions)
	fmt.Fprintf(&sb, "data stalls:   %d\n", s.DataStalls)
	fmt.Fprintf(&sb, "struct stalls: %d\n", s.StructStalls)
	fmt.Fprintf(&sb, "state reads:   %d\n", s.Reads)
	fmt.Fprintf(&sb, "state writes:  %d\n", s.Writes)
	util := s.Utilization()
	for i, f := range d.Fields {
		fmt.Fprintf(&sb, "field %-12s utilization %5.1f%%\n", f.Name, util[i]*100)
	}
	names := make([]string, 0, len(s.OpCounts))
	for n := range s.OpCounts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "  %-20s %d\n", n, s.OpCounts[n])
	}
	return sb.String()
}

// pendingWrite is a latency-delayed write-back.
type pendingWrite struct {
	w        write
	commitAt uint64 // end of this cycle; visible to issues > commitAt
}

// opInfo is the pre-bound execution record for one operation instance,
// produced by the load-time disassembly.
type opInfo struct {
	dop     *decode.Op
	env     *env
	latency int
	usage   int
	cycle   int
	reads   []loc
	active  bool // has architectural effect (non-empty action/side effect)
	// count is the cached execution counter for this operation (avoids a
	// per-step string-keyed map update).
	count *uint64
	// optSide lists the sub-environments of the non-terminal options whose
	// side effects run after the operation's own (e.g. post-increment
	// addressing), in parameter declaration order, depth first.
	optSide []*env
}

// instInfo is one decoded, pre-analyzed instruction.
type instInfo struct {
	inst  *decode.Inst
	ops   []opInfo
	cycle int // instruction cycles: max over operations
	// actionOps and sideOps index the operations with statements in each
	// phase; the rest (typically the nops of idle VLIW fields) have no
	// effect to evaluate or commit.
	actionOps, sideOps []int
}

// ErrBreakpoint is returned by Run when it stops at a breakpoint.
var ErrBreakpoint = errors.New("xsim: breakpoint")

// Simulator is one XSIM simulator instance.
type Simulator struct {
	d  *isdl.Description
	st *state.State

	// The decode cache (off-line disassembly, §3.3.2) is a dense slice
	// indexed by pc - denseBase for the program's address range — the
	// fetch fast path — with a map fallback for instructions outside it
	// (e.g. code materialized into untouched instruction memory).
	dense      []*instInfo
	denseBase  int
	cacheOv    map[int]*instInfo
	opCounters map[*isdl.Operation]*uint64
	phaseBuf   []phase
	// Handles bypass name lookup on the hot path; resolved once at
	// construction (they stay valid across Reset). stH is indexed by
	// isdl.Storage.Index; haltH is the storage that halts the machine when
	// non-zero (invalid when there is none).
	stH       []state.Handle
	pcH       state.Handle
	imH       state.Handle
	haltH     state.Handle
	currentPC int

	cycle       uint64
	fieldFreeAt []uint64
	pending     []pendingWrite
	halted      bool
	stopErr     error

	breakpoints map[int]bool
	trace       io.Writer
	// stats holds the running counts. Its OpCounts stays nil: Stats
	// builds that map from opCounters.
	stats Stats
	// perf counts the simulator's own work (decode-cache traffic, wall
	// clock, cumulative simulated work); see perf.go. Unlike stats it
	// survives Reset.
	perf perfCounters

	// clock overrides time.Now for Run's wall-clock accounting; tests
	// inject deterministic clocks to pin down the perf derivation.
	clock func() time.Time

	// StallModel enables the latency/usage interlock (§3.3.3); disabling
	// it is ablation C.
	StallModel bool
}

// New builds a simulator for a description. A storage named "HLT" (any
// kind), when present, halts the machine when it becomes non-zero; use
// SetHaltStorage to choose a different one.
func New(d *isdl.Description) *Simulator {
	sim := &Simulator{
		d:           d,
		st:          state.New(d),
		cacheOv:     map[int]*instInfo{},
		opCounters:  map[*isdl.Operation]*uint64{},
		phaseBuf:    make([]phase, len(d.Fields)),
		fieldFreeAt: make([]uint64, len(d.Fields)),
		breakpoints: map[int]bool{},
		StallModel:  true,
	}
	sim.stats.FieldIssue = make([]uint64, len(d.Fields))
	sim.stH = make([]state.Handle, len(d.Storage))
	for _, st := range d.Storage {
		sim.stH[st.Index], _ = sim.st.Handle(st.Name)
	}
	sim.pcH = sim.stH[d.PC().Index]
	sim.imH = sim.stH[d.InstructionMemory().Index]
	sim.haltH, _ = sim.st.Handle("HLT")
	// Self-modifying writes invalidate the load-time decode of the
	// affected address.
	if _, err := sim.st.Watch(d.InstructionMemory().Name, -1, func(ev state.ChangeEvent) {
		sim.invalidate(ev.Index)
	}); err != nil {
		panic("xsim: " + err.Error())
	}
	return sim
}

// invalidate drops the cached decode of one instruction address.
func (sim *Simulator) invalidate(addr int) {
	if i := addr - sim.denseBase; i >= 0 && i < len(sim.dense) {
		sim.dense[i] = nil
		return
	}
	delete(sim.cacheOv, addr)
}

// State exposes the simulated processor state (for examine/set commands and
// the co-simulation tests).
func (sim *Simulator) State() *state.State { return sim.st }

// Description returns the machine description.
func (sim *Simulator) Description() *isdl.Description { return sim.d }

// Stats returns a snapshot of the utilization statistics gathered so far.
// The snapshot owns its map and slice: later runs, Loads and Resets of the
// simulator never change it.
func (sim *Simulator) Stats() Stats {
	s := sim.stats
	s.FieldIssue = slices.Clone(s.FieldIssue)
	// Per-operation counts are kept in cached counters on the hot path,
	// one per operation decoded since New; materialize the map view here.
	s.OpCounts = make(map[string]uint64, len(sim.opCounters))
	for op, c := range sim.opCounters {
		s.OpCounts[op.QualName()] = *c
	}
	return s
}

// Cycle returns the current cycle count.
func (sim *Simulator) Cycle() uint64 { return sim.cycle }

// Halted reports whether the machine has stopped (halt storage or error).
func (sim *Simulator) Halted() bool { return sim.halted }

// Err returns the error that halted the machine, if any.
func (sim *Simulator) Err() error { return sim.stopErr }

// SetHaltStorage selects the storage whose non-zero value halts the machine.
func (sim *Simulator) SetHaltStorage(name string) error {
	st, ok := sim.d.StorageByName[name]
	if !ok {
		return fmt.Errorf("xsim: unknown storage %s", name)
	}
	sim.haltH = sim.stH[st.Index]
	return nil
}

// SetClock overrides the wall clock used by Run's perf accounting; nil
// restores time.Now. Tests inject frozen or stepped clocks to exercise the
// near-zero-RunSeconds guards of the perf derivation.
func (sim *Simulator) SetClock(now func() time.Time) { sim.clock = now }

// SetTrace directs the execution address trace (§3.1) to w; nil disables it.
func (sim *Simulator) SetTrace(w io.Writer) { sim.trace = w }

// AddBreakpoint sets a breakpoint at an instruction address.
func (sim *Simulator) AddBreakpoint(addr int) { sim.breakpoints[addr] = true }

// RemoveBreakpoint clears a breakpoint; it reports whether one existed.
func (sim *Simulator) RemoveBreakpoint(addr int) bool {
	ok := sim.breakpoints[addr]
	delete(sim.breakpoints, addr)
	return ok
}

// Breakpoints lists the breakpoint addresses in order.
func (sim *Simulator) Breakpoints() []int {
	out := make([]int, 0, len(sim.breakpoints))
	for a := range sim.breakpoints {
		out = append(out, a)
	}
	sort.Ints(out)
	return out
}

// Load loads an assembled program: instruction memory, data initializers,
// and the PC set to the load base (or the "start"/"main" symbol if
// defined). It resets machine state but keeps monitors and breakpoints.
//
// When the incoming image is identical to the one already loaded (same
// base, length and words), the dense decode cache survives: reload loops
// over one program (benchmark harnesses, repeated co-simulation runs)
// skip the whole re-decode. The comparison runs against current memory
// contents, so self-modified images never keep stale decodes. Map-
// overflow decodes (addresses outside the image) are always dropped —
// Reset clears the memory they decoded from. To force a full re-decode,
// call Reset before Load.
func (sim *Simulator) Load(p *asm.Program) error {
	keep := sim.sameImage(p)
	sim.reset(keep)
	// Size the dense decode window to the program image; repeated Loads of
	// same-sized programs reuse the slice. When the image changed, clear
	// after resizing so a grow-within-capacity never exposes stale decodes
	// past the previous length.
	sim.denseBase = p.Base
	if n := len(p.Words); n <= cap(sim.dense) {
		sim.dense = sim.dense[:n]
		if !keep {
			clear(sim.dense)
		}
	} else {
		sim.dense = make([]*instInfo, n)
	}
	if err := sim.st.LoadProgram(p.Base, p.Words); err != nil {
		return err
	}
	for _, di := range p.Data {
		if err := sim.st.LoadData(di.Storage, di.Base, di.Values); err != nil {
			return err
		}
	}
	entry := p.Base
	for _, s := range []string{"start", "main"} {
		if a, ok := p.Symbols[s]; ok {
			entry = a
			break
		}
	}
	sim.st.SetPC(bitvec.FromUint64(sim.d.PC().Width, uint64(entry)))
	return nil
}

// sameImage reports whether the program's instruction image is identical
// to the one currently decoded: same base, same length, and every word
// equal to current instruction-memory contents (so self-modifying runs
// compare against what the decodes actually came from).
func (sim *Simulator) sameImage(p *asm.Program) bool {
	if sim.denseBase != p.Base || len(sim.dense) != len(p.Words) {
		return false
	}
	for i, w := range p.Words {
		if !sim.imH.Get(p.Base + i).Eq(w) {
			return false
		}
	}
	return true
}

// Reset clears machine state, statistics and the decode cache. Storage is
// reused in place — no maps or slices are reallocated — so Load-heavy loops
// (benchmark harnesses, repeated co-simulation runs) stay allocation-free.
func (sim *Simulator) Reset() {
	sim.reset(false)
}

// reset is Reset with the option to keep the dense decode cache, used by
// Load when the incoming image is unchanged. The map-overflow decodes are
// always dropped: they cover addresses outside the loaded image, whose
// contents the state reset clears.
func (sim *Simulator) reset(keepDecodes bool) {
	sim.st.Reset()
	if !keepDecodes {
		clear(sim.dense)
	}
	clear(sim.cacheOv)
	// Keep the per-operation counters (the operations belong to the fixed
	// description) and zero them through the shared pointers, so cached
	// opInfo records from a previous program stay consistent if callers
	// hold on to them.
	for _, c := range sim.opCounters {
		*c = 0
	}
	sim.cycle = 0
	sim.pending = sim.pending[:0]
	for i := range sim.fieldFreeAt {
		sim.fieldFreeAt[i] = 0
	}
	sim.halted = false
	sim.stopErr = nil
	fi := sim.stats.FieldIssue
	clear(fi)
	sim.stats = Stats{FieldIssue: fi}
}

// fetch returns the pre-analyzed instruction at pc, decoding on first use
// (the off-line disassembly of §3.3.2, performed lazily per address so that
// data words in instruction memory never need to decode).
func (sim *Simulator) fetch(pc int) (*instInfo, error) {
	// Fast path: a bounds-checked slice load for the program's own address
	// range; the map only serves addresses outside the loaded image.
	di := pc - sim.denseBase
	if di >= 0 && di < len(sim.dense) {
		if ii := sim.dense[di]; ii != nil {
			sim.perf.decodeHits++
			return ii, nil
		}
	} else if ii, ok := sim.cacheOv[pc]; ok {
		sim.perf.decodeHits++
		return ii, nil
	}
	sim.perf.decodeMisses++
	im := sim.d.InstructionMemory()
	img := decode.FetchWord(sim.d, func(a int) bitvec.Value {
		return sim.imH.Get(im.Addr(uint64(a)))
	}, pc)
	inst, err := decode.Instruction(sim.d, img)
	if err != nil {
		return nil, err
	}
	ii := &instInfo{inst: inst}
	for _, dop := range inst.Ops {
		counter := sim.opCounters[dop.Op]
		if counter == nil {
			counter = new(uint64)
			sim.opCounters[dop.Op] = counter
		}
		oi := opInfo{
			dop:     dop,
			env:     newEnv(sim, dop.Op.Params, dop.Args),
			latency: dop.Op.Timing.Latency,
			usage:   dop.Op.Timing.Usage,
			cycle:   dop.Op.Costs.Cycle,
			active:  len(dop.Op.Action) > 0 || len(dop.Op.SideEffect) > 0,
			count:   counter,
		}
		addOptionCosts(&oi, oi.env)
		oi.reads = readSet(dop.Op, oi.env)
		if len(dop.Op.Action) > 0 {
			ii.actionOps = append(ii.actionOps, len(ii.ops))
		}
		if len(dop.Op.SideEffect) > 0 || len(oi.optSide) > 0 {
			ii.sideOps = append(ii.sideOps, len(ii.ops))
		}
		ii.ops = append(ii.ops, oi)
		if oi.cycle > ii.cycle {
			ii.cycle = oi.cycle
		}
	}
	if di >= 0 && di < len(sim.dense) {
		sim.dense[di] = ii
	} else {
		sim.cacheOv[pc] = ii
	}
	return ii, nil
}

// addOptionCosts folds non-terminal option costs and timing into the
// operation's (ISDL option costs are additive adders, §2.1.1) and collects
// the options with side effects.
func addOptionCosts(oi *opInfo, e *env) {
	for _, sub := range e.subs {
		if sub == nil {
			continue
		}
		o := sub.option
		oi.cycle += o.Costs.Cycle
		oi.latency += o.Timing.Latency
		oi.usage += o.Timing.Usage
		if len(o.SideEffect) > 0 {
			oi.active = true
			oi.optSide = append(oi.optSide, sub)
		}
		addOptionCosts(oi, sub)
	}
}

// Step executes one instruction. It returns an error if the machine faults;
// a halted machine steps to no effect.
func (sim *Simulator) Step() (err error) {
	if sim.halted {
		return sim.stopErr
	}
	// The evaluator reports rare faults (stack overflow/underflow) by
	// panicking with *RuntimeError.
	defer func() {
		if r := recover(); r != nil {
			re, ok := r.(*RuntimeError)
			if !ok {
				panic(r)
			}
			sim.halted = true
			sim.stopErr = re
			err = re
		}
	}()
	pc := int(sim.pcH.Get(0).Uint64())
	sim.currentPC = pc
	ii, err := sim.fetch(pc)
	if err != nil {
		sim.halted = true
		sim.stopErr = err
		return err
	}

	issue := sim.cycle
	if sim.StallModel {
		// Structural hazards: every field must be free.
		for fi := range sim.d.Fields {
			if sim.fieldFreeAt[fi] > issue {
				issue = sim.fieldFreeAt[fi]
			}
		}
		sim.stats.StructStalls += issue - sim.cycle
		// Data hazards: stall past pending write-backs we read.
		dataStart := issue
		for changed := true; changed; {
			changed = false
			for i := range sim.pending {
				if p := &sim.pending[i]; p.commitAt >= issue && instReads(ii, &p.w.loc) {
					issue = p.commitAt + 1
					changed = true
				}
			}
		}
		sim.stats.DataStalls += issue - dataStart
	}
	sim.commitPendingBefore(issue)

	sim.st.Cycle = issue
	size := ii.inst.Size
	// PC reads as the next instruction's address during execution; a
	// control-flow operation overwrites it.
	sim.pcH.Set(0, bitvec.FromUint64(sim.d.PC().Width, uint64(pc+size)))

	sim.execPhase(ii, issue, false)
	// Side effects conceptually take place after the actions, still within
	// the same cycle (§3.3.3).
	sim.execPhase(ii, issue, true)

	for fi := range ii.ops {
		oi := &ii.ops[fi]
		sim.fieldFreeAt[fi] = issue + uint64(oi.usage)
		*oi.count++
		if oi.active {
			sim.stats.FieldIssue[fi]++
		}
	}
	sim.cycle = issue + uint64(ii.cycle)
	sim.stats.Cycles = sim.cycle
	sim.stats.Instructions++

	if sim.trace != nil {
		fmt.Fprintf(sim.trace, "%x\n", pc)
	}
	if sim.haltH.Valid() && !sim.haltH.Get(0).IsZero() {
		sim.halted = true
		// Flush outstanding write-backs so the final state is complete.
		sim.commitPendingBefore(^uint64(0))
	}
	return nil
}

// execPhase runs the action phase (sideEffects=false) or the side-effects
// phase (sideEffects=true) for every operation of the instruction: all reads
// happen against pre-phase state, then writes commit in field order (or are
// scheduled per the operation's latency).
func (sim *Simulator) execPhase(ii *instInfo, issue uint64, sideEffects bool) {
	work := ii.actionOps
	if sideEffects {
		work = ii.sideOps
	}
	phases := sim.phaseBuf
	for _, i := range work {
		ph := &phases[i]
		ph.writes, ph.pushes = ph.writes[:0], ph.pushes[:0]
		oi := &ii.ops[i]
		if sideEffects {
			oi.env.execStmts(oi.dop.Op.SideEffect, ph)
			for _, sub := range oi.optSide {
				sub.execStmts(sub.option.SideEffect, ph)
			}
		} else {
			oi.env.execStmts(oi.dop.Op.Action, ph)
		}
	}
	for _, i := range work {
		sim.commitWithLatency(&phases[i], ii.ops[i].latency, issue)
	}
}

// commitWithLatency applies a phase's effects: latency-1 writes and all
// stack operations commit now; longer-latency writes are queued. Writes to
// the program counter always commit immediately.
func (sim *Simulator) commitWithLatency(ph *phase, latency int, issue uint64) {
	if latency <= 1 {
		sim.commit(ph)
		return
	}
	imm := phase{pushes: ph.pushes}
	for i := range ph.writes {
		w := &ph.writes[i]
		if w.loc.st.Kind == isdl.StProgramCounter {
			imm.writes = append(imm.writes, *w)
			continue
		}
		sim.pending = append(sim.pending, pendingWrite{w: *w, commitAt: issue + uint64(latency) - 1})
	}
	sim.commit(&imm)
}

// commitPendingBefore commits every pending write visible to an instruction
// issuing at the given cycle (commitAt < issue), in scheduling order.
func (sim *Simulator) commitPendingBefore(issue uint64) {
	if len(sim.pending) == 0 {
		return
	}
	kept := sim.pending[:0]
	for i := range sim.pending {
		p := &sim.pending[i]
		if p.commitAt < issue {
			sim.st.Cycle = p.commitAt
			sim.applyWrite(&p.w)
		} else {
			kept = append(kept, *p)
		}
	}
	sim.pending = kept
}

// instReads reports whether the instruction's read set intersects a write
// location.
func instReads(ii *instInfo, l *loc) bool {
	for i := range ii.ops {
		for _, r := range ii.ops[i].reads {
			if r.st == l.st && (r.addr < 0 || r.addr == l.addr) {
				return true
			}
		}
	}
	return false
}

// FlushPending commits every outstanding latency-delayed write-back
// immediately. The architectural end state is unchanged (the interlock
// already guarantees consumers wait for these values); co-simulation and
// debugging use it to observe a consistent state between instructions.
func (sim *Simulator) FlushPending() {
	sim.commitPendingBefore(^uint64(0))
}

// Run executes until the machine halts, a breakpoint is reached, or limit
// instructions have executed (limit <= 0 means no limit). It returns
// ErrBreakpoint when stopped by a breakpoint.
func (sim *Simulator) Run(limit int64) error {
	// Perf accounting (perf.go): wall clock plus the architectural deltas
	// of this Run, measured once per call so the step loop stays clean.
	now := time.Now
	if sim.clock != nil {
		now = sim.clock
	}
	start := now()
	i0, c0, d0, s0 := sim.stats.Instructions, sim.cycle, sim.stats.DataStalls, sim.stats.StructStalls
	defer func() {
		sim.perf.runNs += now().Sub(start).Nanoseconds()
		sim.perf.instructions += sim.stats.Instructions - i0
		sim.perf.cycles += sim.cycle - c0
		sim.perf.dataStalls += sim.stats.DataStalls - d0
		sim.perf.structStalls += sim.stats.StructStalls - s0
	}()
	executed := int64(0)
	for !sim.halted {
		if limit > 0 && executed >= limit {
			return nil
		}
		if executed > 0 && len(sim.breakpoints) > 0 {
			if pc := int(sim.pcH.Get(0).Uint64()); sim.breakpoints[pc] {
				return ErrBreakpoint
			}
		}
		if err := sim.Step(); err != nil {
			return err
		}
		executed++
	}
	return sim.stopErr
}

// Disassemble renders the instruction at an address, for debugging UIs.
func (sim *Simulator) Disassemble(pc int) (string, error) {
	ii, err := sim.fetch(pc)
	if err != nil {
		return "", err
	}
	return asm.RenderInst(sim.d, ii.inst), nil
}
