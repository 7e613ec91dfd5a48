package core_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// TestFIROnSPAM runs the FIR workload end-to-end on the generated SPAM
// simulator and checks every output value against the Go reference model —
// the bit-true claim on a real DSP kernel.
func TestFIROnSPAM(t *testing.T) {
	const taps, nout = 16, 32
	samples, coefs := machines.FIRTestVectors(taps, nout)
	d := machines.SPAM()
	p, err := asm.Assemble(d, machines.FIRSPAM(taps, nout, samples, coefs))
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if !sim.Halted() {
		t.Fatal("FIR did not halt")
	}
	want := machines.FIRReference(taps, nout, samples, coefs)
	for i, w := range want {
		got := sim.State().Get("DMX", machines.FIRSPAMOutBase+i).Uint64()
		if got != uint64(w) {
			t.Fatalf("y[%d] = %d, want %d", i, got, w)
		}
	}
	// The parallel loads must keep both move fields busy.
	util := sim.Stats().Utilization()
	mv1 := d.FieldByName("MV1").Index
	mv2 := d.FieldByName("MV2").Index
	if util[mv1] < 0.3 || util[mv2] < 0.3 {
		t.Errorf("move-field utilization too low: %v", util)
	}
}

func TestDotOnSPAM(t *testing.T) {
	const n = 24
	x, y := machines.FIRTestVectors(n, 0)
	d := machines.SPAM()
	p, err := asm.Assemble(d, machines.DotSPAM(n, x[:n], y))
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	want := machines.DotReference(n, x[:n], y)
	if got := sim.State().Get("RF", 8).Uint64(); got != uint64(want) {
		t.Fatalf("dot = %d, want %d", got, want)
	}
}

func TestVecAddOnSPAM2(t *testing.T) {
	const n = 40
	a, b := machines.VecTestVectors(n)
	d := machines.SPAM2()
	p, err := asm.Assemble(d, machines.VecAddSPAM2(n, a, b))
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	wantC, wantSum := machines.VecAddReference(n, a, b)
	for i, w := range wantC {
		if got := sim.State().Get("DM", 256+i).Uint64(); got != uint64(w) {
			t.Fatalf("c[%d] = %d, want %d", i, got, w)
		}
	}
	if got := sim.State().Get("RF", 7).Uint64(); got != uint64(wantSum) {
		t.Fatalf("checksum = %d, want %d", got, wantSum)
	}
}

// evaluate assembles asmText for d and runs the methodology on it.
func evaluate(t *testing.T, d *isdl.Description, asmText, workload string) *core.Evaluation {
	t.Helper()
	p, err := asm.Assemble(d, asmText)
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.Evaluate(d, p, workload)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEvaluate(t *testing.T) {
	const taps, nout = 8, 16
	samples, coefs := machines.FIRTestVectors(taps, nout)
	e := evaluate(t, machines.SPAM(), machines.FIRSPAM(taps, nout, samples, coefs), "fir")
	if e.Cycles == 0 || e.CycleNs <= 0 || e.AreaCells <= 0 {
		t.Fatalf("degenerate evaluation: %+v", e)
	}
	if e.RuntimeUs <= 0 || e.PowerMW <= 0 || e.EnergyUJ <= 0 {
		t.Fatalf("combined figures missing: %+v", e)
	}
	s := e.Summary()
	for _, want := range []string{"cycles:", "cycle length:", "die size:", "power:"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if e.Score(1, 0, 0) != e.RuntimeUs {
		t.Error("runtime-only score should equal runtime")
	}
}

// TestEvaluationShape: SPAM is bigger and hotter than SPAM2, but finishes a
// comparable workload in fewer cycles — the area/performance trade the
// exploration loop navigates.
func TestEvaluationShape(t *testing.T) {
	const n = 32
	a, b := machines.VecTestVectors(n)
	e2 := evaluate(t, machines.SPAM2(), machines.VecAddSPAM2(n, a, b), "vecadd")
	x, y := machines.VecTestVectors(n)
	eSpam := evaluate(t, machines.SPAM(), machines.DotSPAM(n, x, y), "dot")
	if !(eSpam.AreaCells > e2.AreaCells) {
		t.Errorf("SPAM area %.0f should exceed SPAM2 %.0f", eSpam.AreaCells, e2.AreaCells)
	}
	if !(eSpam.Cycles < e2.Cycles) {
		t.Errorf("SPAM dot (%d cycles) should beat SPAM2 vecadd (%d cycles) on a same-length vector", eSpam.Cycles, e2.Cycles)
	}
}

// TestEvaluateErrors: a text that is no description fails as a
// *core.ParseError with its prefix, and a workload that faults fails its
// evaluation. (The non-halting case is TestRunSimulationLimit.)
func TestEvaluateErrors(t *testing.T) {
	for _, src := range []string{"garbage", "Machine broken;"} {
		var perr *core.ParseError
		_, _, err := (&core.Pipeline{Cache: core.NewStageCache(nil, nil)}).EvaluateKernel(src, "", "w", nil)
		if !errors.As(err, &perr) {
			t.Errorf("%q: err = %v, want a *core.ParseError", src, err)
		} else if !strings.HasPrefix(err.Error(), "core: parse ISDL: ") {
			t.Errorf("%q: parse error message %q lost its prefix", src, err)
		}
	}
	d := machines.Toy()
	p, err := asm.Assemble(d, ".word 0xe00000")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Evaluate(d, p, "w"); err == nil {
		t.Error("faulting workload should fail")
	}
}
