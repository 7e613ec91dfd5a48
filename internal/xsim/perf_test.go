package xsim_test

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/xsim"
)

// perfLoop runs a short counted loop, so re-executed addresses exercise the
// decode cache.
const perfLoop = `
    mv R1, #0
    mv R2, #5
loop:
    beq R2, R0, done
    add R1, R1, R2
    sub R2, R2, #1
    jmp loop
done:
    halt
`

func TestPerfCounters(t *testing.T) {
	sim := runToy(t, perfLoop)
	p := sim.Perf()

	stats := sim.Stats()
	if p.Instructions != stats.Instructions {
		t.Errorf("perf instructions = %d, want %d", p.Instructions, stats.Instructions)
	}
	if p.Cycles != sim.Cycle() {
		t.Errorf("perf cycles = %d, want %d", p.Cycles, sim.Cycle())
	}
	// The loop body re-executes: 7 distinct addresses decode fresh, every
	// further fetch hits the decode cache.
	if p.DecodeMisses != 7 {
		t.Errorf("decode misses = %d, want 7 (one per distinct address)", p.DecodeMisses)
	}
	if p.DecodeHits+p.DecodeMisses != p.Instructions {
		t.Errorf("decode hits %d + misses %d != %d instructions", p.DecodeHits, p.DecodeMisses, p.Instructions)
	}
	if p.DecodeHitRate() <= 0.5 {
		t.Errorf("decode hit rate = %v, want > 0.5 for a loop", p.DecodeHitRate())
	}
	if p.RunSeconds <= 0 {
		t.Errorf("run seconds = %v, want > 0", p.RunSeconds)
	}
	if p.MIPS <= 0 || p.SimCyclesPerSec <= 0 {
		t.Errorf("throughput not computed: MIPS=%v cycles/s=%v", p.MIPS, p.SimCyclesPerSec)
	}

	sum := p.Summary()
	for _, want := range []string{"instructions:", "decode cache:", "MIPS"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestPerfSurvivesReset(t *testing.T) {
	d := machines.Toy()
	prog, err := asm.Assemble(d, perfLoop)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	first := sim.Perf()
	sim.Reset()
	if err := sim.Load(prog); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	second := sim.Perf()
	if second.Instructions != 2*first.Instructions {
		t.Errorf("instructions after reset+rerun = %d, want %d (cumulative)", second.Instructions, 2*first.Instructions)
	}
	if second.RunSeconds <= first.RunSeconds {
		t.Error("run seconds did not accumulate across Reset")
	}
}

// TestPerfRatesNearZeroClock injects clocks whose Run deltas are zero or
// negative: the derived rates must stay zero (never ±Inf or NaN) and the
// report must still marshal as JSON — the regression that motivated
// DeriveRates was a frozen clock turning MIPS into +Inf and poisoning the
// metrics export.
func TestPerfRatesNearZeroClock(t *testing.T) {
	frozen := time.Unix(1_700_000_000, 0)
	clocks := map[string]func() time.Time{
		"frozen": func() time.Time { return frozen },
		"backwards": func() func() time.Time {
			step := 0
			return func() time.Time {
				step++
				return frozen.Add(-time.Duration(step) * time.Second)
			}
		}(),
	}
	for name, clock := range clocks {
		t.Run(name, func(t *testing.T) {
			d := machines.Toy()
			prog, err := asm.Assemble(d, perfLoop)
			if err != nil {
				t.Fatal(err)
			}
			sim := xsim.New(d)
			sim.SetClock(clock)
			if err := sim.Load(prog); err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(100000); err != nil {
				t.Fatal(err)
			}
			p := sim.Perf()
			if p.Instructions == 0 {
				t.Fatal("no instructions recorded — test is vacuous")
			}
			if p.RunSeconds != 0 || p.MIPS != 0 || p.SimCyclesPerSec != 0 {
				t.Errorf("rates with %s clock = (%v s, %v MIPS, %v cycles/s), want all zero",
					name, p.RunSeconds, p.MIPS, p.SimCyclesPerSec)
			}
			blob, err := json.Marshal(p)
			if err != nil {
				t.Fatalf("perf report does not marshal: %v", err)
			}
			var back xsim.PerfReport
			if err := json.Unmarshal(blob, &back); err != nil {
				t.Fatalf("perf report does not round-trip: %v", err)
			}
		})
	}
}

// TestDeriveRatesClamps covers the derivation directly: non-positive
// durations zero the rates, and non-finite divisions clamp to zero.
func TestDeriveRatesClamps(t *testing.T) {
	p := xsim.PerfReport{Instructions: 10, Cycles: 20}
	for _, ns := range []int64{0, -1, math.MinInt64} {
		p.DeriveRates(ns)
		if p.RunSeconds != 0 || p.MIPS != 0 || p.SimCyclesPerSec != 0 {
			t.Errorf("DeriveRates(%d) = (%v, %v, %v), want zeros", ns, p.RunSeconds, p.MIPS, p.SimCyclesPerSec)
		}
	}
	p.DeriveRates(1) // one nanosecond: huge but finite rates
	if math.IsInf(p.MIPS, 0) || math.IsNaN(p.MIPS) || math.IsInf(p.SimCyclesPerSec, 0) {
		t.Errorf("DeriveRates(1) produced non-finite rates: %v MIPS, %v cycles/s", p.MIPS, p.SimCyclesPerSec)
	}
}

func TestPerfPublish(t *testing.T) {
	sim := runToy(t, perfLoop)
	reg := obs.NewRegistry()
	sim.Perf().Publish(reg)
	counters := reg.Counters()
	if counters["xsim.instructions"] != sim.Perf().Instructions {
		t.Errorf("published instructions = %d, want %d", counters["xsim.instructions"], sim.Perf().Instructions)
	}
	for _, name := range []string{"xsim.cycles", "xsim.decode.hits", "xsim.decode.misses", "xsim.run_ns"} {
		if _, ok := counters[name]; !ok {
			t.Errorf("counter %s not published", name)
		}
	}
	// Nil registry is a no-op.
	sim.Perf().Publish(nil)
}
