package experiments

// White-box regression tests for the Table 1 measurement bugs: stale event
// counts, setup time billed as simulation time, the unguarded Render
// division — plus the parallel-vs-serial bit-identity of the co-simulated
// Verilog measurement.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/tech"
	"repro/internal/verilog"
)

// table1FIR resolves the Table 1 FIR workload and elaborates its
// synthesized hardware model.
func table1FIR(t *testing.T) (*isdl.Description, *asm.Program, *verilog.Module) {
	t.Helper()
	d, p, err := table1Workload()
	if err != nil {
		t.Fatal(err)
	}
	r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	return d, p, mod
}

// TestVerilogEventsAccumulate: Table 1's event total must accumulate over
// every workload run, pairing with the cumulative cycle count — the old
// loop overwrote hwEvents each iteration and reported only the last run.
func TestVerilogEventsAccumulate(t *testing.T) {
	_, p, mod := table1FIR(t)
	one, err := measureVerilog(mod, p, Table1Options{Workers: 1, MinVerilogRuns: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	three, err := measureVerilog(mod, p, Table1Options{Workers: 1, MinVerilogRuns: 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one.Jobs != 1 || three.Jobs != 3 {
		t.Fatalf("run counts: %d and %d, want 1 and 3", one.Jobs, three.Jobs)
	}
	if one.Events == 0 || one.Cycles == 0 {
		t.Fatalf("degenerate single run: %+v", one)
	}
	if three.Events != 3*one.Events {
		t.Errorf("events = %d after 3 runs, want 3×%d (stale per-run overwrite?)", three.Events, one.Events)
	}
	if three.Cycles != 3*one.Cycles {
		t.Errorf("cycles = %d after 3 runs, want 3×%d", three.Cycles, one.Cycles)
	}
}

// TestVerilogSetupExcluded pins the timed windows with an injected clock
// that advances one second per reading: each run must bill exactly one
// clock step to setup (NewSim + cosim.LoadProgram) and one to simulation (the
// Tick loop), so the cycles/sec denominator is the Tick loop alone — the
// old code started the clock before elaboration.
func TestVerilogSetupExcluded(t *testing.T) {
	_, p, mod := table1FIR(t)
	var ticks int
	clock := func() time.Time {
		ticks++
		return time.Unix(int64(ticks), 0)
	}
	st, err := measureVerilog(mod, p, Table1Options{Workers: 1, MinVerilogRuns: 2}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * time.Second; st.Setup != want {
		t.Errorf("setup window = %v, want %v (one clock step per run)", st.Setup, want)
	}
	if want := 2 * time.Second; st.Sim != want {
		t.Errorf("sim window = %v, want %v — elaboration/load leaked into the timed window", st.Sim, want)
	}
	if got, want := st.SimCyclesPerSec(), float64(st.Cycles)/2; got != want {
		t.Errorf("SimCyclesPerSec = %v, want %v (denominator must be the Tick loop only)", got, want)
	}
}

// stateSnapshot reads every architectural storage element ("s_"-prefixed
// net or memory) of a finished hardware model.
func stateSnapshot(t *testing.T, d *isdl.Description, hw *verilog.Sim) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, st := range d.Storage {
		if st.Kind == isdl.StInstructionMemory {
			continue
		}
		if st.Kind.Addressed() {
			for i := 0; i < st.Depth; i++ {
				v, err := hw.GetMem("s_"+st.Name, i)
				if err != nil {
					t.Fatal(err)
				}
				out[fmt.Sprintf("%s[%d]", st.Name, i)] = v.String()
			}
		} else {
			v, err := hw.Get("s_" + st.Name)
			if err != nil {
				t.Fatal(err)
			}
			out[st.Name] = v.String()
		}
	}
	return out
}

// TestVerilogParallelBitIdentity: the same four whole FIR workloads, run
// serially and at workers=4, must leave identical final storage state per
// run and identical aggregate cycle/event totals (exercised under -race by
// the CI race job).
func TestVerilogParallelBitIdentity(t *testing.T) {
	d, p, mod := table1FIR(t)
	const runs = 4
	measure := func(workers int) ([]map[string]string, cosim.Stats) {
		pool := &cosim.Pool{Workers: workers}
		finals := make([]map[string]string, runs)
		stats, err := pool.Run("identity", runs, func(i int, l *cosim.Lane) error {
			hw, err := cosim.Workload{Mod: mod, Init: func(hw *verilog.Sim) error { return cosim.LoadProgram(hw, p) }}.Run(l)
			if err != nil {
				return err
			}
			finals[i] = stateSnapshot(t, d, hw)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return finals, stats
	}
	serial, sstats := measure(1)
	parallel, pstats := measure(4)
	if sstats.Cycles != pstats.Cycles || sstats.Events != pstats.Events {
		t.Errorf("aggregate counts diverged: serial %d/%d, parallel %d/%d",
			sstats.Cycles, sstats.Events, pstats.Cycles, pstats.Events)
	}
	for i := range serial {
		if len(serial[i]) == 0 {
			t.Fatalf("run %d: empty state snapshot", i)
		}
		for k, v := range serial[i] {
			if parallel[i][k] != v {
				t.Errorf("run %d: %s = %q serial vs %q parallel", i, k, v, parallel[i][k])
			}
		}
	}
}

// TestRenderZeroVerilogSpeed: a degenerate run (Verilog speed 0) must
// render finite numbers in every row, never a division by zero's +Inf.
func TestRenderZeroVerilogSpeed(t *testing.T) {
	t1 := &Table1{
		ILS:     Table1Row{Model: "XSIM (ILS) Simulator", CyclesPerSec: 1e6},
		Verilog: Table1Row{Model: "Synthesizable Verilog"},
	}
	if got := t1.Speedup(); got != 0 {
		t.Errorf("Speedup = %v, want 0", got)
	}
	out := t1.Render()
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(out, bad) {
			t.Errorf("render contains %q on a degenerate run:\n%s", bad, out)
		}
	}
}
