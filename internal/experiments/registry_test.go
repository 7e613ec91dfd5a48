package experiments_test

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/experiments"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/suite"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// These tests prove the experiments entry points — which resolve machines
// through the zoo and workloads through the suite registry — produce output
// identical to direct construction from the machines generators.

// TestAsmWorkloadsCompat: every pinned asm workload in the registry must
// assemble to the same program as its machines generator.
func TestAsmWorkloadsCompat(t *testing.T) {
	x, y := machines.VecTestVectors(32)
	a, b := machines.VecTestVectors(64)
	s, c := machines.FIRTestVectors(16, 48)
	for _, tc := range []struct {
		workload string
		machine  string
		src      string
	}{
		{"fir16.spam", "spam", machines.FIRSPAM(16, 48, s, c)},
		{"dot32.spam", "spam", machines.DotSPAM(32, x, y)},
		{"vecadd64.spam2", "spam2", machines.VecAddSPAM2(64, a, b)},
	} {
		w, err := suite.Get(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		if w.Machine != tc.machine {
			t.Errorf("%s: machine %q, want %q", tc.workload, w.Machine, tc.machine)
		}
		d, err := machines.ByName(w.Machine)
		if err != nil {
			t.Fatal(err)
		}
		p, _, _, err := suite.Prepare(w, d)
		if err != nil {
			t.Fatalf("%s: %v", tc.workload, err)
		}
		direct, err := asm.Assemble(d, tc.src)
		if err != nil {
			t.Fatalf("%s direct: %v", tc.workload, err)
		}
		if !reflect.DeepEqual(p.Words, direct.Words) || !reflect.DeepEqual(p.Data, direct.Data) {
			t.Errorf("%s: registry program differs from direct construction", tc.workload)
		}
	}
}

// TestRunTable2Compat: the zoo-resolved machine list behind RunTable2 must
// synthesize the same deterministic statistics as direct construction
// (SynthSec is wall clock and excluded).
func TestRunTable2Compat(t *testing.T) {
	rows, err := experiments.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Processor != "SPAM" || rows[1].Processor != "SPAM2" {
		t.Fatalf("rows: %+v", rows)
	}
	for i, d := range []*isdl.Description{machines.SPAM(), machines.SPAM2()} {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if rows[i].CycleNs != r.CycleNs || rows[i].VerilogLines != r.VerilogLines ||
			rows[i].DieSizeCells != r.AreaCells {
			t.Errorf("%s: row %+v differs from direct synthesis", rows[i].Processor, rows[i])
		}
	}
}

// TestRunAblationStallsCompat: the registry-resolved dot32 workload must
// yield the same ablation rows as direct generator construction.
func TestRunAblationStallsCompat(t *testing.T) {
	rows, err := experiments.RunAblationStalls()
	if err != nil {
		t.Fatal(err)
	}
	x, y := machines.VecTestVectors(32)
	d := machines.SPAM()
	p, err := asm.Assemble(d, machines.DotSPAM(32, x, y))
	if err != nil {
		t.Fatal(err)
	}
	want := machines.DotReference(32, x, y)
	var direct []experiments.StallRow
	for _, stall := range []bool{true, false} {
		sim := xsim.New(d)
		sim.StallModel = stall
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		model := "interlock (paper §3.3.3)"
		if !stall {
			model = "no stall model"
		}
		direct = append(direct, experiments.StallRow{
			Workload: "dot32", Model: model,
			Cycles: sim.Cycle(), DataStalls: sim.Stats().DataStalls,
			Correct: sim.State().Get("RF", 8).Eq(bitvec.FromUint64(32, uint64(want))),
		})
	}
	if !reflect.DeepEqual(rows, direct) {
		t.Fatalf("rows %+v differ from direct construction %+v", rows, direct)
	}
}
