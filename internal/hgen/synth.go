package hgen

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/isdl"
	"repro/internal/tech"
	"repro/internal/verilog"
)

// DecodeStyle selects the decode-logic implementation (ablation B).
type DecodeStyle int

const (
	// DecodeTwoLevel derives one product term per operation from the
	// constant bits of its signature — the efficient two-level
	// implementation of §4.2.
	DecodeTwoLevel DecodeStyle = iota
	// DecodeComparator is the naive alternative: a full-width masked
	// comparator per operation.
	DecodeComparator
)

func (s DecodeStyle) String() string {
	if s == DecodeTwoLevel {
		return "two-level"
	}
	return "comparator"
}

// Options configure a synthesis run.
type Options struct {
	Sharing SharingMode
	Decode  DecodeStyle
	// EmitVerilog additionally generates the synthesizable Verilog model
	// (requires MaxSize == 1 and no Stack storage).
	EmitVerilog bool
}

// DefaultOptions is the paper's configuration: full sharing, two-level
// decode, Verilog output.
func DefaultOptions() Options {
	return Options{Sharing: ShareRulesAndConstraints, Decode: DecodeTwoLevel, EmitVerilog: true}
}

// Unit is one shared functional unit generated for a maximal clique.
type Unit struct {
	Class string
	Width int
	// Nodes mapped onto this unit; Ways is the resulting mux fan-in.
	Nodes []*Node
	Ways  int
	// PipeDepth and Bypass are inferred from the costs/timing of the
	// operations using the unit (§4.1.3).
	PipeDepth int
	Bypass    bool

	Metrics     tech.Metrics // the unit proper
	MuxCost     tech.Metrics // operand multiplexers
	PipeRegCost tech.Metrics
}

// Result is the hardware implementation model.
type Result struct {
	Desc    *isdl.Description
	Lib     *tech.Library
	Options Options

	Nodes  []*Node
	Units  []*Unit
	Groups [][]int

	AreaCells float64
	Breakdown map[string]float64
	CycleNs   float64
	// CriticalPath names the cycle-limiting segment for diagnostics;
	// CritUnit is the functional unit whose execute stage sets the cycle
	// (nil when another segment dominates or there are no units).
	CriticalPath string
	CritUnit     *Unit
	// EnergyPerInstrPJ is the estimated switched energy of one average
	// instruction (every field active).
	EnergyPerInstrPJ float64

	VerilogText  string
	VerilogLines int
	// SynthSeconds is the wall-clock synthesis time (Table 2).
	SynthSeconds float64
	// PhaseSeconds splits SynthSeconds by phase: "share" (node extraction
	// and resource-sharing clique cover), "retime" (unit construction and
	// area/cycle/energy estimation) and "emit" (Verilog generation and the
	// re-parse gate; absent when EmitVerilog is off).
	PhaseSeconds map[string]float64
	// CoexistExhausted counts the cross-field operation pairs whose
	// constraint search ran out of budget and was assumed to coexist, so
	// they were not shared: a conservative answer that can overstate area.
	CoexistExhausted int
}

// Synthesize compiles a description into a hardware model.
func Synthesize(d *isdl.Description, lib *tech.Library, opts Options) (*Result, error) {
	start := time.Now()
	r := &Result{Desc: d, Lib: lib, Options: opts, Breakdown: map[string]float64{}, PhaseSeconds: map[string]float64{}}

	r.Nodes = extractNodes(d)
	coex := newCoexistence(d)
	a := shareMatrix(d, r.Nodes, opts.Sharing, coex)
	r.CoexistExhausted = coex.exhausted
	var cliques [][]int
	if opts.Sharing != ShareOff {
		cliques = maximalCliques(a, 4000)
	}
	r.Groups = cliqueCover(a, cliques)
	if opts.Sharing != ShareOff {
		r.refineGroups(a)
	}
	phase := time.Now()
	r.PhaseSeconds["share"] = phase.Sub(start).Seconds()
	r.buildUnits()
	r.estimate()
	r.PhaseSeconds["retime"] = time.Since(phase).Seconds()
	if opts.EmitVerilog {
		phase = time.Now()
		text, err := generateVerilog(d)
		if err != nil {
			return nil, err
		}
		r.VerilogText = text
		r.VerilogLines = verilog.CountLines(text)
		// The emitted model must parse back in our own subset — the same
		// gate a real flow applies by linting the RTL.
		if _, err := verilog.Parse(text); err != nil {
			return nil, fmt.Errorf("hgen: generated Verilog does not re-parse: %v", err)
		}
		r.PhaseSeconds["emit"] = time.Since(phase).Seconds()
	}
	r.SynthSeconds = time.Since(start).Seconds()
	return r, nil
}

// buildUnits turns each clique group into a shared functional unit.
func (r *Result) buildUnits() {
	for _, group := range r.Groups {
		u := &Unit{Class: unitClass(r.Nodes[group[0]].Kind), Ways: len(group)}
		ops := map[*isdl.Operation]bool{}
		for _, idx := range group {
			n := r.Nodes[idx]
			u.Nodes = append(u.Nodes, n)
			if n.Width > u.Width {
				u.Width = n.Width
			}
			ops[n.Op] = true
		}
		// Structural inference (§4.1.3): an operation with Stall > 0 and
		// Latency L implies a (Cycle+Stall)-deep pipeline without bypass
		// for that path; Stall = 0 with L > 1 implies the same depth with
		// full bypass.
		u.PipeDepth = 1
		for op := range ops {
			depth := op.Costs.Cycle
			if op.Costs.Stall > 0 {
				depth = op.Costs.Cycle + op.Costs.Stall
			} else if op.Timing.Latency > 1 {
				depth = op.Costs.Cycle + op.Timing.Latency - 1
				u.Bypass = true
			}
			if depth > u.PipeDepth {
				u.PipeDepth = depth
			}
		}
		r.Units = append(r.Units, u)
	}
	sort.Slice(r.Units, func(i, j int) bool {
		if r.Units[i].Class != r.Units[j].Class {
			return r.Units[i].Class < r.Units[j].Class
		}
		return r.Units[i].Width > r.Units[j].Width
	})
}

func (r *Result) unitMetrics(u *Unit) tech.Metrics {
	return metricsFor(r.Lib, u.Class, u.Width)
}

func metricsFor(l *tech.Library, class string, width int) tech.Metrics {
	switch class {
	case "addsub":
		return l.Adder(width)
	case "mul":
		return l.Multiplier(width)
	case "div":
		return l.Divider(width)
	case "logic":
		return l.Logic(width)
	case "shift":
		return l.Shifter(width)
	case "cmp":
		return l.Comparator(width)
	}
	return tech.Metrics{}
}

// groupCost estimates the silicon cost of implementing a node group as one
// shared unit: the unit itself plus its two operand multiplexers.
func (r *Result) groupCost(group []int) float64 {
	if len(group) == 0 {
		return 0
	}
	class := unitClass(r.Nodes[group[0]].Kind)
	width := 0
	for _, n := range group {
		if r.Nodes[n].Width > width {
			width = r.Nodes[n].Width
		}
	}
	u := metricsFor(r.Lib, class, width)
	mux := r.Lib.Mux(width, len(group))
	return u.AreaCells + 2*mux.AreaCells
}

// refineGroups improves the clique cover with local search — the
// "combinatorial optimization strategy" the paper proposes for the resource
// sharing problem (§4.1.1): nodes move between compatible groups (or out to
// a fresh unit) whenever that reduces total datapath cost, so added
// compatibility can never increase the estimate.
func (r *Result) refineGroups(a [][]bool) {
	compatible := func(n int, group []int) bool {
		for _, m := range group {
			if m != n && !a[n][m] {
				return false
			}
		}
		return len(group) == 0 || unitClass(r.Nodes[n].Kind) == unitClass(r.Nodes[group[0]].Kind)
	}
	remove := func(group []int, n int) []int {
		out := make([]int, 0, len(group)-1)
		for _, m := range group {
			if m != n {
				out = append(out, m)
			}
		}
		return out
	}
	for pass := 0; pass < 20; pass++ {
		improved := false
		for gi := 0; gi < len(r.Groups); gi++ {
			for _, n := range append([]int(nil), r.Groups[gi]...) {
				src := r.Groups[gi]
				srcCost := r.groupCost(src)
				srcWithout := remove(src, n)
				bestDelta := -1e-9
				bestTarget := -2 // -2 none, -1 new singleton, >=0 group index
				// Moving out to a fresh unit.
				delta := r.groupCost(srcWithout) + r.groupCost([]int{n}) - srcCost
				if len(src) > 1 && delta < bestDelta {
					bestDelta, bestTarget = delta, -1
				}
				for gj := 0; gj < len(r.Groups); gj++ {
					if gj == gi || !compatible(n, r.Groups[gj]) {
						continue
					}
					dst := r.Groups[gj]
					delta := r.groupCost(srcWithout) + r.groupCost(append(append([]int(nil), dst...), n)) -
						srcCost - r.groupCost(dst)
					if delta < bestDelta {
						bestDelta, bestTarget = delta, gj
					}
				}
				switch bestTarget {
				case -2:
				case -1:
					r.Groups[gi] = srcWithout
					r.Groups = append(r.Groups, []int{n})
					improved = true
				default:
					r.Groups[gi] = srcWithout
					r.Groups[bestTarget] = append(r.Groups[bestTarget], n)
					improved = true
				}
			}
		}
		// Drop emptied groups.
		kept := r.Groups[:0]
		for _, g := range r.Groups {
			if len(g) > 0 {
				kept = append(kept, g)
			}
		}
		r.Groups = kept
		if !improved {
			break
		}
	}
}

// estimate computes die size, cycle length and energy.
func (r *Result) estimate() {
	l := r.Lib
	d := r.Desc

	// Datapath units, operand muxes and pipeline registers.
	var datapath, muxes, pipeRegs, energy float64
	maxStageNs := 0.0
	stageOwner := ""
	for _, u := range r.Units {
		u.Metrics = r.unitMetrics(u)
		u.MuxCost = l.Mux(u.Width, u.Ways)
		u.MuxCost.Add(l.Mux(u.Width, u.Ways)) // two operand ports
		if u.PipeDepth > 1 {
			reg := l.Register(u.Width)
			u.PipeRegCost = tech.Metrics{
				AreaCells: reg.AreaCells * float64(u.PipeDepth-1),
				EnergyPJ:  reg.EnergyPJ * float64(u.PipeDepth-1),
			}
			if u.Bypass {
				byp := l.Mux(u.Width, u.PipeDepth)
				u.PipeRegCost.AreaCells += byp.AreaCells
				u.PipeRegCost.EnergyPJ += byp.EnergyPJ
			}
		}
		datapath += u.Metrics.AreaCells
		muxes += u.MuxCost.AreaCells
		pipeRegs += u.PipeRegCost.AreaCells
		energy += u.Metrics.EnergyPJ*0.4 + u.MuxCost.EnergyPJ

		stage := u.Metrics.DelayNs/float64(u.PipeDepth) + u.MuxCost.DelayNs
		if stage > maxStageNs {
			maxStageNs = stage
			stageOwner = fmt.Sprintf("%s%d (%d-way, depth %d)", u.Class, u.Width, u.Ways, u.PipeDepth)
			r.CritUnit = u
		}
	}

	// Decode logic (§4.2): one decode line per operation per field, plus
	// the option decoders of every non-terminal.
	var decodeArea float64
	decodeDelay := 0.0
	countTerm := func(sig *isdl.Signature) {
		lits := 0
		for _, b := range sig.Bits {
			if b.Kind == isdl.SigConst {
				lits++
			}
		}
		var m tech.Metrics
		if r.Options.Decode == DecodeTwoLevel {
			m = l.DecodeTerm(lits)
		} else {
			m = l.Comparator(len(sig.Bits))
			m.Add(l.Logic(len(sig.Bits)))
		}
		decodeArea += m.AreaCells
		energy += m.EnergyPJ
		if m.DelayNs > decodeDelay {
			decodeDelay = m.DelayNs
		}
	}
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			countTerm(&op.Sig)
		}
	}
	for _, nt := range d.NonTerminals {
		for _, opt := range nt.Options {
			countTerm(&opt.Sig)
		}
	}

	// Storage.
	var storageArea float64
	memDelay := 0.0
	ports := storagePorts(d)
	for _, st := range d.Storage {
		var m tech.Metrics
		if st.Kind.Addressed() {
			m = l.Memory(st.Width, st.Depth, ports[st.Name])
			if st.Kind == isdl.StStack {
				m.Add(l.Register(16)) // stack pointer
			}
			if m.DelayNs > memDelay && st.Kind != isdl.StInstructionMemory {
				memDelay = m.DelayNs
			}
		} else {
			m = l.Register(st.Width)
		}
		storageArea += m.AreaCells
		energy += m.EnergyPJ * 0.5
	}

	// Write-back multiplexing: one mux per written storage, fan-in = the
	// number of operations that write it. Accumulate in sorted storage
	// order: float addition is not associative, so summing in map order
	// made EnergyPerInstrPJ — and through it the power objective every
	// exploration strategy compares — wobble in the last bit from run to
	// run (TestEstimateDeterministic).
	writers := storageWriters(d)
	wbNames := make([]string, 0, len(writers))
	for name := range writers {
		wbNames = append(wbNames, name)
	}
	sort.Strings(wbNames)
	var wbArea float64
	wbDelay := 0.0
	for _, name := range wbNames {
		st := d.StorageByName[name]
		m := l.Mux(st.Width, writers[name])
		wbArea += m.AreaCells
		energy += m.EnergyPJ
		if m.DelayNs > wbDelay {
			wbDelay = m.DelayNs
		}
	}

	r.Breakdown["datapath"] = datapath
	r.Breakdown["operand muxes"] = muxes
	r.Breakdown["pipeline regs"] = pipeRegs
	r.Breakdown["decode"] = decodeArea
	r.Breakdown["storage"] = storageArea
	r.Breakdown["writeback muxes"] = wbArea
	r.AreaCells = datapath + muxes + pipeRegs + decodeArea + storageArea + wbArea

	wire := l.WireDelay(4)
	r.CycleNs = l.FlopDelayNs + decodeDelay + memDelay + maxStageNs + wbDelay + wire
	r.CriticalPath = fmt.Sprintf("flop %.1f + decode %.1f + storage %.1f + exec %.1f [%s] + writeback %.1f + wire %.1f ns",
		l.FlopDelayNs, decodeDelay, memDelay, maxStageNs, stageOwner, wbDelay, wire)
	r.EnergyPerInstrPJ = energy
}

// storagePorts counts, per storage, the fields whose operations access it —
// the concurrent-port requirement of the VLIW.
func storagePorts(d *isdl.Description) map[string]int {
	ports := map[string]int{}
	for _, f := range d.Fields {
		touched := map[string]bool{}
		for _, op := range f.Ops {
			for name := range storageAccesses(d, op) {
				touched[name] = true
			}
		}
		for name := range touched {
			ports[name]++
		}
	}
	for _, st := range d.Storage {
		if ports[st.Name] < 1 {
			ports[st.Name] = 1
		}
	}
	return ports
}

// storageWriters counts, per storage, how many operations write it.
func storageWriters(d *isdl.Description) map[string]int {
	writers := map[string]int{}
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			acc := storageAccesses(d, op)
			for name, wrote := range acc {
				if wrote {
					writers[name]++
				}
			}
		}
	}
	return writers
}

// storageAccesses maps storage name → wasWritten for one operation,
// following non-terminal parameters.
func storageAccesses(d *isdl.Description, op *isdl.Operation) map[string]bool {
	acc := map[string]bool{}
	var walkStmts func(stmts []isdl.Stmt)
	var walkE func(e isdl.Expr, writing bool)
	walkE = func(e isdl.Expr, writing bool) {
		isdl.WalkExpr(e, func(e isdl.Expr) {
			switch e := e.(type) {
			case *isdl.Ref:
				switch {
				case e.Storage != nil:
					acc[e.Storage.Name] = acc[e.Storage.Name] || writing
				case e.AliasTo != nil:
					acc[e.AliasTo.Target] = acc[e.AliasTo.Target] || writing
				case e.Param != nil && e.Param.NT != nil:
					for _, opt := range e.Param.NT.Options {
						walkE(opt.Value, writing)
					}
				}
			case *isdl.Index:
				acc[e.Storage.Name] = acc[e.Storage.Name] || writing
			case *isdl.Call:
				if e.Fn == "push" || e.Fn == "pop" {
					if ref, ok := e.Args[0].(*isdl.Ref); ok {
						acc[ref.Name] = true
					}
				}
			}
		})
	}
	walkStmts = func(stmts []isdl.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *isdl.Assign:
				walkE(s.LHS, true)
				walkE(s.RHS, false)
			case *isdl.If:
				walkE(s.Cond, false)
				walkStmts(s.Then)
				walkStmts(s.Else)
			case *isdl.ExprStmt:
				walkE(s.X, false)
			}
		}
	}
	walkStmts(op.Action)
	walkStmts(op.SideEffect)
	for _, prm := range op.Params {
		if prm.NT != nil {
			for _, opt := range prm.NT.Options {
				walkStmts(opt.SideEffect)
			}
		}
	}
	return acc
}

// Report renders the synthesis statistics (the Table 2 row plus the area
// breakdown).
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine:        %s\n", r.Desc.Name)
	fmt.Fprintf(&sb, "sharing:        %s, decode: %s\n", r.Options.Sharing, r.Options.Decode)
	fmt.Fprintf(&sb, "cycle:          %.1f ns\n", r.CycleNs)
	fmt.Fprintf(&sb, "critical path:  %s\n", r.CriticalPath)
	fmt.Fprintf(&sb, "die size:       %.0f grid cells\n", r.AreaCells)
	keys := make([]string, 0, len(r.Breakdown))
	for k := range r.Breakdown {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-16s %8.0f\n", k, r.Breakdown[k])
	}
	if r.CoexistExhausted > 0 {
		fmt.Fprintf(&sb, "coexistence:    %d operation pairs exhausted the search budget (assumed to coexist, not shared)\n", r.CoexistExhausted)
	}
	fmt.Fprintf(&sb, "units:          %d (from %d RTL nodes)\n", len(r.Units), len(r.Nodes))
	for _, u := range r.Units {
		fmt.Fprintf(&sb, "  %-8s w%-3d ways %-3d depth %d bypass %-5v area %8.0f\n",
			u.Class, u.Width, u.Ways, u.PipeDepth, u.Bypass, u.Metrics.AreaCells+u.MuxCost.AreaCells+u.PipeRegCost.AreaCells)
	}
	if r.VerilogLines > 0 {
		fmt.Fprintf(&sb, "verilog:        %d lines\n", r.VerilogLines)
	}
	fmt.Fprintf(&sb, "synthesis time: %.3f s", r.SynthSeconds)
	if len(r.PhaseSeconds) > 0 {
		sb.WriteString(" (")
		for i, ph := range []string{"share", "retime", "emit"} {
			if sec, ok := r.PhaseSeconds[ph]; ok {
				if i > 0 {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "%s %.3f", ph, sec)
			}
		}
		sb.WriteString(")")
	}
	sb.WriteByte('\n')
	return sb.String()
}
