package cosim_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/verilog"
)

// poolSrc is a small sequential design with a memory: ten cycles of
// accumulate-and-scramble, then halt. Distinct memory images give distinct
// (but deterministic) final states, which is what the bit-identity tests
// compare across worker counts.
const poolSrc = `
module poolcounter (
  clk,
  halted,
  acc
);
  input clk;
  output halted;
  output [7:0] acc;

  reg [7:0] cnt;
  reg [7:0] sum;
  reg [2:0] idx;
  reg [7:0] mem [0:7];

  assign halted = (cnt == 8'h0a);
  assign acc = sum;

  always @(posedge clk) begin
    cnt <= (cnt + 8'h01);
    idx <= (idx + 3'h1);
    sum <= (sum + mem[idx]);
    mem[idx] <= (sum ^ cnt);
  end
endmodule
`

func parsePool(t *testing.T) *verilog.Module {
	t.Helper()
	m, err := verilog.Parse(poolSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// finalState is everything observable about one finished workload.
type finalState struct {
	cycles uint64
	events uint64
	acc    uint64
	mem    [8]uint64
}

// runJobs executes n poolcounter workloads (job i seeds the memory from i)
// and returns the per-job final states plus the aggregate stats.
func runJobs(t *testing.T, mod *verilog.Module, workers, n int, reg *obs.Registry) ([]finalState, cosim.Stats) {
	t.Helper()
	pool := &cosim.Pool{Workers: workers, Obs: reg}
	finals := make([]finalState, n)
	var mu sync.Mutex
	stats, err := pool.Run("test.pool", n, func(i int, l *cosim.Lane) error {
		wl := cosim.Workload{
			Mod: mod,
			Init: func(hw *verilog.Sim) error {
				for k := 0; k < 8; k++ {
					if err := hw.SetMem("mem", k, bitvec.FromUint64(8, uint64(i*13+k*7))); err != nil {
						return err
					}
				}
				return nil
			},
		}
		ev0 := l.Events()
		cy0 := l.Cycles()
		hw, err := wl.Run(l)
		if err != nil {
			return err
		}
		var fs finalState
		fs.cycles = l.Cycles() - cy0
		fs.events = l.Events() - ev0
		acc, err := hw.Get("acc")
		if err != nil {
			return err
		}
		fs.acc = acc.Uint64()
		for k := 0; k < 8; k++ {
			v, err := hw.GetMem("mem", k)
			if err != nil {
				return err
			}
			fs.mem[k] = v.Uint64()
		}
		mu.Lock()
		finals[i] = fs
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return finals, stats
}

// TestPoolBitIdentity runs the same 8 independent workloads at workers=1
// and workers=8 (under -race in CI) and requires identical final storage
// state per job and identical aggregate cycle/event counts — the proof
// that fanning out changes nothing but the wall clock.
func TestPoolBitIdentity(t *testing.T) {
	mod := parsePool(t)
	const n = 8
	serial, sstats := runJobs(t, mod, 1, n, nil)
	parallel, pstats := runJobs(t, mod, 8, n, obs.NewRegistry())
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("job %d diverged: serial %+v parallel %+v", i, serial[i], parallel[i])
		}
	}
	if sstats.Cycles != pstats.Cycles || sstats.Events != pstats.Events {
		t.Errorf("aggregate counts diverged: serial %d cycles / %d events, parallel %d / %d",
			sstats.Cycles, sstats.Events, pstats.Cycles, pstats.Events)
	}
	if sstats.Cycles == 0 || sstats.Events == 0 {
		t.Fatalf("degenerate run: %+v", sstats)
	}
	// Distinct memory images must really produce distinct final states.
	if serial[0] == serial[1] {
		t.Error("jobs 0 and 1 should differ (distinct memory images)")
	}
}

// TestPoolErrorReductionOrder checks that the reported error is the
// lowest-index failure no matter which worker hits its failure first.
func TestPoolErrorReductionOrder(t *testing.T) {
	pool := &cosim.Pool{Workers: 8}
	errLow := errors.New("job 3 failed")
	_, err := pool.Run("test.errs", 10, func(i int, l *cosim.Lane) error {
		switch i {
		case 3:
			time.Sleep(10 * time.Millisecond) // fail late: order must not matter
			return errLow
		case 7:
			return errors.New("job 7 failed")
		}
		return nil
	})
	if !errors.Is(err, errLow) {
		t.Fatalf("got %v, want the lowest-index failure %v", err, errLow)
	}
}

// TestPoolFakeClockWindows pins the setup/sim/wall windows down exactly
// with an injected clock that advances one second per reading.
func TestPoolFakeClockWindows(t *testing.T) {
	var ticks int
	clock := func() time.Time {
		ticks++
		return time.Unix(int64(ticks), 0)
	}
	pool := &cosim.Pool{Workers: 1, Now: clock}
	const n = 3
	stats, err := pool.Run("test.clock", n, func(i int, l *cosim.Lane) error {
		if err := l.Setup(func() error { return nil }); err != nil {
			return err
		}
		return l.Sim(func() error { l.AddCycles(10); return nil })
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := n * time.Second; stats.Setup != want {
		t.Errorf("Setup = %v, want %v", stats.Setup, want)
	}
	if want := n * time.Second; stats.Sim != want {
		t.Errorf("Sim = %v, want %v", stats.Sim, want)
	}
	// Wall spans every clock reading between start and end: 1 (start) +
	// 4 per job + 1 (end) readings → n*4+1 seconds.
	if want := time.Duration(n*4+1) * time.Second; stats.Wall != want {
		t.Errorf("Wall = %v, want %v", stats.Wall, want)
	}
	// cycles/sec must divide by the sim window only: 30 cycles over 3 s.
	if got := stats.SimCyclesPerSec(); got != 10 {
		t.Errorf("SimCyclesPerSec = %v, want 10 (setup leaked into the denominator?)", got)
	}
	if got, want := stats.Speedup(), stats.Sim.Seconds()/stats.Wall.Seconds(); got != want {
		t.Errorf("Speedup = %v, want %v", got, want)
	}
}

// TestStatsZeroGuards: degenerate measurements report 0, never Inf/NaN.
func TestStatsZeroGuards(t *testing.T) {
	var s cosim.Stats
	if s.SimCyclesPerSec() != 0 || s.AggregateCyclesPerSec() != 0 || s.Speedup() != 0 {
		t.Errorf("zero stats should report zero rates: %v %v %v",
			s.SimCyclesPerSec(), s.AggregateCyclesPerSec(), s.Speedup())
	}
}

// TestWorkloadMaxCycles bounds a never-halting run.
func TestWorkloadMaxCycles(t *testing.T) {
	mod := parsePool(t)
	pool := &cosim.Pool{Workers: 1}
	stats, err := pool.Run("test.max", 1, func(i int, l *cosim.Lane) error {
		// halted goes high at cnt==10; cap below that.
		_, err := cosim.Workload{Mod: mod, MaxCycles: 4}.Run(l)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cycles != 4 {
		t.Errorf("cycles = %d, want 4", stats.Cycles)
	}
}

// TestPoolObsInstrumentation checks the registry wiring: per-worker cycle
// counters sum to the aggregate, the cosim.* totals match, per-job
// histograms saw every job, and each job produced a span.
func TestPoolObsInstrumentation(t *testing.T) {
	mod := parsePool(t)
	reg := obs.NewRegistry()
	const n = 6
	_, stats := func() ([]finalState, cosim.Stats) { return runJobs(t, mod, 3, n, reg) }()
	counters := reg.Counters()
	if counters["cosim.jobs"] != n {
		t.Errorf("cosim.jobs = %d, want %d", counters["cosim.jobs"], n)
	}
	if counters["cosim.cycles"] != stats.Cycles || counters["cosim.events"] != stats.Events {
		t.Errorf("counter totals %d/%d, stats %d/%d",
			counters["cosim.cycles"], counters["cosim.events"], stats.Cycles, stats.Events)
	}
	var perWorker uint64
	for w := 0; w < 3; w++ {
		perWorker += counters[fmt.Sprintf("cosim.worker%d.cycles", w)]
	}
	if perWorker != stats.Cycles {
		t.Errorf("per-worker cycles sum %d, want %d", perWorker, stats.Cycles)
	}
	hists := reg.Histograms()
	if hists["cosim.job.sim.ns"].Count != n || hists["cosim.job.setup.ns"].Count != n {
		t.Errorf("histogram counts: sim %d setup %d, want %d each",
			hists["cosim.job.sim.ns"].Count, hists["cosim.job.setup.ns"].Count, n)
	}
	var jobs int
	for _, sp := range reg.Spans() {
		if sp.Name == "job" {
			jobs++
		}
	}
	if jobs != n {
		t.Errorf("job spans = %d, want %d", jobs, n)
	}
}

// TestLoadProgramInstructionMemoryName: LoadProgram writes the image into
// the net HGEN names after the description's instruction memory, so toy
// with its IMEM renamed to ROM still loads and runs to halt.
func TestLoadProgramInstructionMemoryName(t *testing.T) {
	d, err := isdl.Parse(strings.Replace(machines.ToySource, "IMEM", "ROM", 1))
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "mv R1, #5\n mv R2, #3\n add R3, R1, R2\n halt")
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
	var halted, r3 bitvec.Value
	pool := &cosim.Pool{Workers: 1}
	if _, err := pool.Run("test.rom", 1, func(_ int, l *cosim.Lane) error {
		wl := cosim.Workload{Mod: mod, MaxCycles: 100, Init: func(hw *verilog.Sim) error {
			return cosim.LoadProgram(hw, p)
		}}
		hw, err := wl.Run(l)
		if err != nil {
			return err
		}
		if halted, err = hw.Get("halted"); err != nil {
			return err
		}
		r3, err = hw.GetMem("s_RF", 3)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if halted.IsZero() || r3.Uint64() != 8 {
		t.Fatalf("halted = %s, RF[3] = %s; want halted with RF[3] = 8", halted, r3)
	}
}
