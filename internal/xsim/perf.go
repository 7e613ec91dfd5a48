package xsim

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/obs"
)

// Simulator performance counters — the simulator measuring itself, the way
// ScaleSimulator-style parallel simulators expose built-in perf counters.
// Architectural statistics (Stats) describe the simulated machine and reset
// with it; these counters describe the simulator and are cumulative over
// the simulator's lifetime: decode-cache traffic accrues as instructions
// are decoded, and every Run adds its wall-clock
// time and executed instruction/cycle/stall deltas, so simulated MIPS stays
// meaningful across Load/Reset cycles.
type perfCounters struct {
	decodeHits   uint64
	decodeMisses uint64
	instructions uint64
	cycles       uint64
	dataStalls   uint64
	structStalls uint64
	runNs        int64
}

// PerfReport is a snapshot of the simulator's own performance counters.
type PerfReport struct {
	// Simulated work accumulated across every Run call.
	Instructions uint64 `json:"instructions"`
	Cycles       uint64 `json:"cycles"`
	DataStalls   uint64 `json:"data_stalls"`
	StructStalls uint64 `json:"struct_stalls"`
	// Decode cache (off-line disassembly) traffic: a hit is a fetch served
	// from a cached decoded instruction, a miss decodes fresh.
	DecodeHits   uint64 `json:"decode_hits"`
	DecodeMisses uint64 `json:"decode_misses"`
	// RunSeconds is wall-clock time inside Run; MIPS and SimCyclesPerSec
	// are simulated instructions and cycles per host second.
	RunSeconds      float64 `json:"run_seconds"`
	MIPS            float64 `json:"mips"`
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec"`
}

// Perf snapshots the simulator's performance counters.
func (sim *Simulator) Perf() PerfReport {
	p := PerfReport{
		Instructions: sim.perf.instructions,
		Cycles:       sim.perf.cycles,
		DataStalls:   sim.perf.dataStalls,
		StructStalls: sim.perf.structStalls,
		DecodeHits:   sim.perf.decodeHits,
		DecodeMisses: sim.perf.decodeMisses,
	}
	p.DeriveRates(sim.perf.runNs)
	return p
}

// DeriveRates fills RunSeconds, MIPS and SimCyclesPerSec from a wall-clock
// duration in integer nanoseconds. A non-positive duration (a Run too short
// for the clock to advance, or a clock stepping backwards) leaves the rates
// at zero, and any non-finite result of the division is clamped to zero —
// the report must marshal as JSON, which rejects +Inf/NaN. All backends
// (and the gensim subprocess report) share this derivation.
func (p *PerfReport) DeriveRates(runNs int64) {
	if runNs <= 0 {
		p.RunSeconds, p.MIPS, p.SimCyclesPerSec = 0, 0, 0
		return
	}
	p.RunSeconds = float64(runNs) / 1e9
	p.MIPS = finiteOrZero(float64(p.Instructions) / p.RunSeconds / 1e6)
	p.SimCyclesPerSec = finiteOrZero(float64(p.Cycles) / p.RunSeconds)
}

func finiteOrZero(f float64) float64 {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return 0
	}
	return f
}

// DecodeHitRate is the fraction of fetches served by the decode cache.
func (p PerfReport) DecodeHitRate() float64 {
	if total := p.DecodeHits + p.DecodeMisses; total > 0 {
		return float64(p.DecodeHits) / float64(total)
	}
	return 0
}

// Summary renders the counters as a short report.
func (p PerfReport) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "instructions:   %d (%d cycles, %d data + %d structural stalls)\n",
		p.Instructions, p.Cycles, p.DataStalls, p.StructStalls)
	fmt.Fprintf(&sb, "decode cache:   %d hits / %d misses (%.1f%% hit rate)\n",
		p.DecodeHits, p.DecodeMisses, 100*p.DecodeHitRate())
	if p.RunSeconds > 0 {
		fmt.Fprintf(&sb, "simulation:     %.4f s wall, %.2f MIPS, %.0f cycles/s\n",
			p.RunSeconds, p.MIPS, p.SimCyclesPerSec)
	} else {
		fmt.Fprintf(&sb, "simulation:     no Run recorded yet\n")
	}
	return sb.String()
}

// Publish adds the counters into a registry under the xsim.* names, so
// simulator performance appears alongside pipeline and explorer metrics in
// the exported metrics document. Counters are cumulative, so publish once
// per registry (or into a fresh registry) to avoid double counting.
func (p PerfReport) Publish(r *obs.Registry) {
	if r == nil {
		return
	}
	r.Counter("xsim.instructions").Add(p.Instructions)
	r.Counter("xsim.cycles").Add(p.Cycles)
	r.Counter("xsim.stalls.data").Add(p.DataStalls)
	r.Counter("xsim.stalls.struct").Add(p.StructStalls)
	r.Counter("xsim.decode.hits").Add(p.DecodeHits)
	r.Counter("xsim.decode.misses").Add(p.DecodeMisses)
	r.Counter("xsim.run_ns").Add(uint64(p.RunSeconds * 1e9))
}
