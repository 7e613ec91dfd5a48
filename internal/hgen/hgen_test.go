package hgen_test

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

func synth(t *testing.T, d *isdl.Description, opts hgen.Options) *hgen.Result {
	t.Helper()
	r, err := hgen.Synthesize(d, tech.LSI10K(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSynthesizeToyEstimates(t *testing.T) {
	// The toy machine has a Stack, so only the cost model runs (no
	// Verilog).
	opts := hgen.DefaultOptions()
	opts.EmitVerilog = false
	r := synth(t, machines.Toy(), opts)
	if r.AreaCells <= 0 || r.CycleNs <= 0 {
		t.Fatalf("degenerate result: %+v", r)
	}
	if len(r.Nodes) == 0 || len(r.Units) == 0 {
		t.Fatal("no nodes or units extracted")
	}
	if r.Report() == "" {
		t.Fatal("empty report")
	}
	// Phase timings: share and retime always run; emit only with Verilog.
	for _, ph := range []string{"share", "retime"} {
		if _, ok := r.PhaseSeconds[ph]; !ok {
			t.Errorf("PhaseSeconds missing %q: %v", ph, r.PhaseSeconds)
		}
	}
	if _, ok := r.PhaseSeconds["emit"]; ok {
		t.Error("emit phase recorded without Verilog emission")
	}
	if !strings.Contains(r.Report(), "share") {
		t.Error("report does not show phase timings")
	}
}

// TestCosimToyStack co-simulates the toy machine — whose Stack storage
// synthesizes to a memory plus pointer register — through call/ret and
// push/pop, including a conditional pop path.
func TestCosimToyStack(t *testing.T) {
	d := machines.Toy()
	r := synth(t, d, hgen.DefaultOptions())
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    mv R1, #7
    push R1
    mv R1, #9
    push R1
    pop R2          ; 9
    pop R3          ; 7
    call fn
    add R6, R4, R2
    halt
fn:
    mv R4, #5
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	ils := xsim.New(d)
	if err := ils.Load(p); err != nil {
		t.Fatal(err)
	}
	hw, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		if err := hw.SetMem("s_IMEM", i, w); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; !ils.Halted(); step++ {
		if err := ils.Step(); err != nil {
			t.Fatal(err)
		}
		ils.FlushPending()
		if err := hw.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		compareState(t, d, ils, hw, 0, step)
	}
	if got := ils.State().Get("RF", 6).Uint64(); got != 14 {
		t.Fatalf("R6 = %d, want 14", got)
	}
	if got := ils.State().Get("RF", 3).Uint64(); got != 7 {
		t.Fatalf("R3 = %d, want 7", got)
	}
}

func TestSynthesizeSPAM2Verilog(t *testing.T) {
	r := synth(t, machines.SPAM2(), hgen.DefaultOptions())
	if r.VerilogLines == 0 {
		t.Fatal("no Verilog emitted")
	}
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatalf("emitted Verilog does not parse: %v", err)
	}
	if m.Name != "proc_spam2" {
		t.Fatalf("module name %q", m.Name)
	}
	if _, err := verilog.NewSim(m); err != nil {
		t.Fatalf("emitted Verilog does not elaborate: %v", err)
	}
}

func TestSynthesizeSPAMVerilog(t *testing.T) {
	r := synth(t, machines.SPAM(), hgen.DefaultOptions())
	if _, err := verilog.Parse(r.VerilogText); err != nil {
		t.Fatalf("SPAM Verilog does not parse: %v", err)
	}
}

// TestSharingReducesArea is ablation A, pinned: more sharing, less area;
// and SPAM's constraints (accumulator stores vs ALU) unlock sharing that
// rules 1–4 alone cannot (the §4.1.1 bus example).
func TestSharingReducesArea(t *testing.T) {
	for _, tc := range []struct {
		d     *isdl.Description
		mode  hgen.SharingMode
		cells float64
		units int
	}{
		{machines.SPAM(), hgen.ShareOff, 293516, 26},
		{machines.SPAM(), hgen.ShareRules, 273580, 17},
		{machines.SPAM(), hgen.ShareRulesAndConstraints, 273484, 16},
		{machines.SPAM2(), hgen.ShareOff, 87388, 8},
		{machines.SPAM2(), hgen.ShareRules, 87310, 6},
		{machines.SPAM2(), hgen.ShareRulesAndConstraints, 87310, 6},
	} {
		r := synth(t, tc.d, hgen.Options{Sharing: tc.mode, Decode: hgen.DecodeTwoLevel})
		if math.Round(r.AreaCells) != tc.cells || len(r.Units) != tc.units || r.CoexistExhausted != 0 {
			t.Errorf("%s %s: %.0f cells, %d units, %d exhausted; want %.0f cells, %d units, 0 exhausted",
				tc.d.Name, tc.mode, r.AreaCells, len(r.Units), r.CoexistExhausted, tc.cells, tc.units)
		}
	}
}

// TestDecodeStyleAblation is ablation B: the two-level signature decode is
// smaller than the naive comparator decode.
func TestDecodeStyleAblation(t *testing.T) {
	two := synth(t, machines.SPAM(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: hgen.DecodeTwoLevel})
	cmp := synth(t, machines.SPAM(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: hgen.DecodeComparator})
	if !(two.Breakdown["decode"] < cmp.Breakdown["decode"]) {
		t.Errorf("two-level decode %.0f should beat comparator %.0f",
			two.Breakdown["decode"], cmp.Breakdown["decode"])
	}
}

// TestTable2Shape pins the relative shape of Table 2: SPAM (4 ops + 3
// moves) costs more than SPAM2 (3-way, limited ops) on every column.
func TestTable2Shape(t *testing.T) {
	spam := synth(t, machines.SPAM(), hgen.DefaultOptions())
	spam2 := synth(t, machines.SPAM2(), hgen.DefaultOptions())
	if !(spam.AreaCells > spam2.AreaCells) {
		t.Errorf("die size: SPAM %.0f should exceed SPAM2 %.0f", spam.AreaCells, spam2.AreaCells)
	}
	if !(spam.CycleNs > spam2.CycleNs) {
		t.Errorf("cycle: SPAM %.1f should exceed SPAM2 %.1f", spam.CycleNs, spam2.CycleNs)
	}
	if !(spam.VerilogLines > spam2.VerilogLines) {
		t.Errorf("verilog lines: SPAM %d should exceed SPAM2 %d", spam.VerilogLines, spam2.VerilogLines)
	}
}

// TestPipelineInference checks §4.1.3: SPAM's multiplier (Cycle 1, Stall 2,
// Latency 3) synthesizes as a 3-deep pipeline without bypass.
func TestPipelineInference(t *testing.T) {
	r := synth(t, machines.SPAM(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints})
	var mulUnit *hgen.Unit
	for _, u := range r.Units {
		if u.Class == "mul" {
			mulUnit = u
			break
		}
	}
	if mulUnit == nil {
		t.Fatal("no multiplier unit")
	}
	if mulUnit.PipeDepth != 3 {
		t.Errorf("multiplier pipeline depth = %d, want 3", mulUnit.PipeDepth)
	}
	if mulUnit.Bypass {
		t.Error("Stall > 0 implies no bypass")
	}
}

// TestCliqueCoverValidity is the property test on the sharing result: every
// group must be a clique of the compatibility matrix (no two incompatible
// nodes share a unit), and every node must be covered exactly once.
func TestCliqueCoverValidity(t *testing.T) {
	for _, d := range []*isdl.Description{machines.Toy(), machines.SPAM(), machines.SPAM2()} {
		opts := hgen.Options{Sharing: hgen.ShareRulesAndConstraints}
		r := synth(t, d, opts)
		seen := map[int]bool{}
		for _, group := range r.Groups {
			for _, n := range group {
				if seen[n] {
					t.Fatalf("%s: node %d in two groups", d.Name, n)
				}
				seen[n] = true
			}
			// All nodes in a group share one unit class.
			for _, n := range group[1:] {
				a, b := r.Nodes[group[0]], r.Nodes[n]
				if (a.Kind == isdl.CircuitMul) != (b.Kind == isdl.CircuitMul) {
					t.Fatalf("%s: mixed mul/non-mul group", d.Name)
				}
				// Nodes of the same operation may share only across
				// exclusive options.
				if a.Op == b.Op && a.ParamPath == b.ParamPath {
					t.Fatalf("%s: same-op same-path nodes %s and %s share", d.Name, a, b)
				}
			}
		}
		if len(seen) != len(r.Nodes) {
			t.Fatalf("%s: cover misses nodes: %d of %d", d.Name, len(seen), len(r.Nodes))
		}
	}
}

// randomStraightLine builds a constraint-valid straight-line SPAM2 program
// (no branches) of n instructions plus a halt.
func randomStraightLine(t *testing.T, d *isdl.Description, rnd *rand.Rand, n int) *asm.Program {
	t.Helper()
	var lines []string
	alu := []string{
		"add R%d, R%d, R%d", "sub R%d, R%d, R%d", "and R%d, R%d, R%d",
	}
	for len(lines) < n {
		switch rnd.Intn(6) {
		case 0:
			lines = append(lines, sprintf("mvi R%d, #%d", rnd.Intn(8), rnd.Intn(200)-100))
		case 1:
			f := alu[rnd.Intn(len(alu))]
			lines = append(lines, sprintf(f, rnd.Intn(8), rnd.Intn(8), rnd.Intn(8)))
		case 2:
			lines = append(lines, sprintf("mvar A%d, R%d", rnd.Intn(4), rnd.Intn(8)))
		case 3:
			// Loads forbid a parallel branch (constraint), which is fine
			// in a straight line. Post-increment exercises option side
			// effects.
			if rnd.Intn(2) == 0 {
				lines = append(lines, sprintf("ld R%d, @A%d+", rnd.Intn(8), rnd.Intn(4)))
			} else {
				lines = append(lines, sprintf("ld R%d, @A%d", rnd.Intn(8), rnd.Intn(4)))
			}
		case 4:
			lines = append(lines, sprintf("st @A%d, R%d", rnd.Intn(4), rnd.Intn(8)))
		case 5:
			// A VLIW pair: ALU op with a parallel move.
			lines = append(lines, sprintf("add R%d, R%d, #%d || MV.mvar A%d, R%d",
				rnd.Intn(8), rnd.Intn(8), rnd.Intn(100), rnd.Intn(4), rnd.Intn(8)))
		}
	}
	lines = append(lines, "halt")
	p, err := asm.Assemble(d, strings.Join(lines, "\n"))
	if err != nil {
		t.Fatalf("random program: %v\n%s", err, strings.Join(lines, "\n"))
	}
	return p
}

func sprintf(format string, args ...interface{}) string {
	return fmt.Sprintf(format, args...)
}

// TestCosimILSvsVerilog is the central integration test of the paper's
// claim that both generated models implement the same machine: random SPAM2
// programs run lock-step on the XSIM instruction-level simulator and on the
// event-driven simulation of the HGEN-generated Verilog; every storage
// element must match after every instruction.
func TestCosimILSvsVerilog(t *testing.T) {
	d := machines.SPAM2()
	r := synth(t, d, hgen.DefaultOptions())
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}

	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		p := randomStraightLine(t, d, rnd, 25)

		ils := xsim.New(d)
		if err := ils.Load(p); err != nil {
			t.Fatal(err)
		}
		hw, err := verilog.NewSim(m)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range p.Words {
			if err := hw.SetMem("s_IMEM", p.Base+i, w); err != nil {
				t.Fatal(err)
			}
		}
		// Seed both data memories identically.
		for i := 0; i < 16; i++ {
			v := bitvec.FromUint64(16, uint64(rnd.Intn(1<<16)))
			ils.State().Set("DM", i, v)
			if err := hw.SetMem("s_DM", i, v); err != nil {
				t.Fatal(err)
			}
		}

		for step := 0; !ils.Halted(); step++ {
			if err := ils.Step(); err != nil {
				t.Fatalf("trial %d step %d: ILS fault: %v", trial, step, err)
			}
			ils.FlushPending()
			if err := hw.Tick("clk"); err != nil {
				t.Fatalf("trial %d step %d: HW fault: %v", trial, step, err)
			}
			compareState(t, d, ils, hw, trial, step)
		}
		// The hardware model must report halted too.
		hv, err := hw.Get("halted")
		if err != nil {
			t.Fatal(err)
		}
		if hv.Uint64() != 1 {
			t.Fatalf("trial %d: hardware model did not halt", trial)
		}
	}
}

func compareState(t *testing.T, d *isdl.Description, ils *xsim.Simulator, hw *verilog.Sim, trial, step int) {
	t.Helper()
	if err := stateDiff(d, ils, hw); err != nil {
		t.Fatalf("trial %d step %d: %v", trial, step, err)
	}
}

// stateDiff compares every architectural storage element of the two models
// and reports the first mismatch. It returns (rather than fails) so
// concurrent co-simulation trials can run it off the test goroutine.
func stateDiff(d *isdl.Description, ils *xsim.Simulator, hw *verilog.Sim) error {
	for _, st := range d.Storage {
		if st.Kind.Addressed() {
			if st.Kind == isdl.StInstructionMemory {
				continue
			}
			for i := 0; i < st.Depth; i++ {
				want := ils.State().Get(st.Name, i)
				got, err := hw.GetMem("s_"+st.Name, i)
				if err != nil {
					return err
				}
				if !got.Eq(want) {
					return fmt.Errorf("%s[%d] = %s (hw) vs %s (ils)", st.Name, i, got, want)
				}
			}
		} else {
			want := ils.State().Get(st.Name, 0)
			got, err := hw.Get("s_" + st.Name)
			if err != nil {
				return err
			}
			if !got.Eq(want) {
				return fmt.Errorf("%s = %s (hw) vs %s (ils)", st.Name, got, want)
			}
		}
	}
	return nil
}

// TestCosimControlFlow runs a branching SPAM2 kernel (a down-counting loop)
// on both models.
func TestCosimControlFlow(t *testing.T) {
	d := machines.SPAM2()
	r := synth(t, d, hgen.DefaultOptions())
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    mvi R1, #0
    mvi R2, #10
loop:
    beqz R2, done
    add R1, R1, R2
    sub R2, R2, #1
    jmp loop
done:
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	ils := xsim.New(d)
	if err := ils.Load(p); err != nil {
		t.Fatal(err)
	}
	hw, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		if err := hw.SetMem("s_IMEM", i, w); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; !ils.Halted(); step++ {
		if err := ils.Step(); err != nil {
			t.Fatal(err)
		}
		ils.FlushPending()
		if err := hw.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		compareState(t, d, ils, hw, 0, step)
	}
	if got := ils.State().Get("RF", 1).Uint64(); got != 55 {
		t.Fatalf("sum = %d, want 55", got)
	}
}

// TestRetimeForCycle exercises the §6.2 pipeline optimizer: deepening the
// critical multiplier pipeline must shorten SPAM's cycle, the retimed
// description must be valid, and programs must still compute the same
// results (with more stall cycles where dependences exist).
func TestRetimeForCycle(t *testing.T) {
	d := machines.SPAM()
	before := synth(t, d, hgen.Options{Sharing: hgen.ShareRulesAndConstraints})

	res, err := hgen.RetimeForCycle(d, tech.LSI10K(), before.CycleNs*0.7)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changes) == 0 {
		t.Fatal("no retiming changes were made")
	}
	if !(res.CycleNs < before.CycleNs) {
		t.Fatalf("cycle did not improve: %.1f -> %.1f", before.CycleNs, res.CycleNs)
	}
	// The MAC operations should be the ones retimed (the 64-bit multiplier
	// owns the critical stage).
	sawMul := false
	for _, c := range res.Changes {
		if strings.HasPrefix(c.Op, "MAC.") {
			sawMul = true
		}
	}
	if !sawMul {
		t.Errorf("expected MAC operations in the changes: %+v", res.Changes)
	}
	if !strings.Contains(res.Report(), "retiming:") {
		t.Error("empty report")
	}

	// The retimed machine still computes the dot product correctly.
	const n = 16
	x, y := machines.VecTestVectors(n)
	p, err := asm.Assemble(res.Desc, machines.DotSPAM(n, x, y))
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(res.Desc)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	want := machines.DotReference(n, x, y)
	if got := sim.State().Get("RF", 8).Uint64(); got != uint64(want) {
		t.Fatalf("retimed dot = %d, want %d", got, want)
	}

	// Deeper pipeline, same program: at least as many stalls as before.
	base := xsim.New(d)
	p0, err := asm.Assemble(d, machines.DotSPAM(n, x, y))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Load(p0); err != nil {
		t.Fatal(err)
	}
	if err := base.Run(0); err != nil {
		t.Fatal(err)
	}
	if sim.Stats().DataStalls < base.Stats().DataStalls {
		t.Errorf("retimed machine has fewer stalls (%d) than base (%d)",
			sim.Stats().DataStalls, base.Stats().DataStalls)
	}
}

func TestRetimeBadTarget(t *testing.T) {
	if _, err := hgen.RetimeForCycle(machines.SPAM(), tech.LSI10K(), -1); err == nil {
		t.Fatal("negative target should fail")
	}
}

// TestRetimeUnreachableTarget: an absurdly low target stops at the depth cap
// with Met == false rather than looping.
func TestRetimeUnreachableTarget(t *testing.T) {
	res, err := hgen.RetimeForCycle(machines.SPAM(), tech.LSI10K(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Met {
		t.Fatal("1 ns target cannot be met")
	}
	if res.CycleNs <= 1 {
		t.Fatalf("cycle %f", res.CycleNs)
	}
}

// TestCosimRISC32 co-simulates the RISC machine (register+offset memory
// addressing: the Verilog model indexes memories with computed expressions).
func TestCosimRISC32(t *testing.T) {
	d := machines.RISC32()
	r := synth(t, d, hgen.DefaultOptions())
	m, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    li R1, 0          ; sum
    li R2, 10         ; counter
    li R3, 100        ; base address
    li R4, 1
loop:
    beq R2, R0, done
    add R1, R1, R2
    sw R1, 4(R3)
    lw R5, 4(R3)
    sub R2, R2, R4
    j loop
done:
    sra R6, R1, R4
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	ils := xsim.New(d)
	if err := ils.Load(p); err != nil {
		t.Fatal(err)
	}
	hw, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range p.Words {
		if err := hw.SetMem("s_IMEM", i, w); err != nil {
			t.Fatal(err)
		}
	}
	for step := 0; !ils.Halted(); step++ {
		if err := ils.Step(); err != nil {
			t.Fatal(err)
		}
		ils.FlushPending()
		if err := hw.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		compareState(t, d, ils, hw, 0, step)
	}
	if got := ils.State().Get("RF", 1).Uint64(); got != 55 {
		t.Fatalf("sum = %d", got)
	}
	if got := ils.State().Get("DMEM", 104).Uint64(); got != 55 {
		t.Fatalf("DMEM[104] = %d", got)
	}
	if got := ils.State().Get("RF", 6).Uint64(); got != 27 {
		t.Fatalf("sra result = %d", got)
	}
}

// TestEstimateDeterministic is the regression test for the write-back
// energy accumulation: estimate() used to sum the per-storage mux energy
// in map-iteration order, and float addition is not associative, so
// EnergyPerInstrPJ — and through it the PowerMW objective every
// exploration strategy ranks candidates by — differed in the last bit
// from run to run. Repeated synthesis of the same description must be
// bit-identical.
func TestEstimateDeterministic(t *testing.T) {
	opts := hgen.DefaultOptions()
	opts.EmitVerilog = false
	ref := synth(t, machines.SPAM(), opts)
	for i := 0; i < 20; i++ {
		r := synth(t, machines.SPAM(), opts)
		if r.EnergyPerInstrPJ != ref.EnergyPerInstrPJ {
			t.Fatalf("run %d: EnergyPerInstrPJ %v != %v", i, r.EnergyPerInstrPJ, ref.EnergyPerInstrPJ)
		}
		if r.AreaCells != ref.AreaCells || r.CycleNs != ref.CycleNs {
			t.Fatalf("run %d: area/cycle differ: (%v, %v) != (%v, %v)",
				i, r.AreaCells, r.CycleNs, ref.AreaCells, ref.CycleNs)
		}
	}
}
