package main

import (
	"strings"
	"time"
)

// metric is one reported figure. BENCHMARK.json at the repository root
// mirrors these tables; a test keeps the two in step.
type metric struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	// bound is the share by which an end-to-end metric's gated value may
	// worsen before bench -compare calls it worse.
	bound float64
	// gate is the quantile of a run's observations that the result line
	// and bench -compare read; 0 means the median.
	gate float64
}

// endToEnd are the metrics every workload reports from its untraced
// samples.
var endToEnd = []metric{
	// Operations per host second: candidates on the explore workloads,
	// simulated cycles on table1-ils (per ILS batch) and table1-verilog
	// (per Verilog run), whole sweeps on zoo-sweep. Its gated value is the
	// fast end, the 90th percentile: every observation of a run does the
	// same work, and on a shared host interference only ever slows it (on
	// the measuring host by up to 1.8x for minutes at a time), so the fast
	// end is the stable estimate of the program's speed.
	{name: "ops_per_s_p90", unit: "1/s", better: "higher", bound: 0.25, gate: 0.9},
	// From the parent spawning a sample process to its first timed
	// operation.
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	// VmHWM of the sample process.
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25},
}

// setupFloor is the least change in setup_s that counts, whatever its share.
const setupFloor = 5 * time.Millisecond

// perLayer are the figures of one traced sample, set-up included, named
// by module. A figure whose source the program does not provide on a
// workload is reported absent (0 in the driver's result line).
var perLayer = []metric{
	{name: "hgen.share_s", unit: "s", better: "lower"},
	{name: "hgen.retime_s", unit: "s", better: "lower"},
	{name: "hgen.emit_s", unit: "s", better: "lower"},
	{name: "hgen.synthesize_n", unit: "count", better: "lower"},
	{name: "xsim.simulate_s", unit: "s", better: "lower"},
	{name: "xsim.simulate_n", unit: "count", better: "lower"},
	{name: "xsim.instructions", unit: "count", better: "lower"},
	{name: "xsim.setup_s", unit: "s", better: "lower"},
	{name: "xsim.run_s", unit: "s", better: "lower"},
	{name: "xsim.interp.setup_s", unit: "s", better: "lower"},
	{name: "xsim.interp.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "xsim.compiled.setup_s", unit: "s", better: "lower"},
	{name: "xsim.compiled.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "xsim.aot.setup_s", unit: "s", better: "lower"},
	{name: "xsim.aot.cycles_per_s", unit: "1/s", better: "higher"},
	{name: "isdl.parse_s", unit: "s", better: "lower"},
	{name: "isdl.parse_n", unit: "count", better: "lower"},
	{name: "compiler.compile_s", unit: "s", better: "lower"},
	{name: "compiler.compile_n", unit: "count", better: "lower"},
	{name: "asm.assemble_s", unit: "s", better: "lower"},
	{name: "asm.assemble_n", unit: "count", better: "lower"},
	{name: "suite.prepare_s", unit: "s", better: "lower"},
	{name: "suite.prepare_n", unit: "count", better: "lower"},
	{name: "verilog.parse_s", unit: "s", better: "lower"},
	{name: "verilog.elab_s", unit: "s", better: "lower"},
	{name: "verilog.events_per_cycle", unit: "1", better: "lower"},
	{name: "cosim.pool_speedup", unit: "1", better: "higher"},
	{name: "core.cache_hit_ratio", unit: "1", better: "higher"},
	{name: "explore.candidates", unit: "count", better: "higher"},
	{name: "explore.scored_ratio", unit: "1", better: "higher"},
	{name: "explore.busy_share", unit: "1", better: "higher"},
	{name: "explore.final_score", unit: "1", better: "lower"},
	{name: "accuracy.ils_cycles", unit: "cycles", better: "lower"},
	{name: "accuracy.verilog_cycles", unit: "cycles", better: "lower"},
	{name: "accuracy.cycle_gap", unit: "cycles", better: "higher"},
	{name: "trace_overhead", unit: "1", better: "lower"},
}

// collectLayers turns a traced sample's spans and program instruments into
// the per-layer table. Only figures some source provided are present.
func collectLayers(c config) map[string]float64 {
	out := map[string]float64{}
	for k, v := range c.acc {
		out[k] += v
	}
	// The benchmark's own spans, recorded around each call into a layer.
	for _, sp := range c.reg.Spans() {
		switch sp.Name {
		case "isdl.parse", "suite.prepare":
			out[sp.Name+"_s"] += sp.Dur.Seconds()
			out[sp.Name+"_n"]++
		case "xsim.setup", "verilog.parse":
			out[sp.Name+"_s"] += sp.Dur.Seconds()
		case "xsim.run":
			out["xsim.run_s"] += sp.Dur.Seconds()
			out["xsim.simulate_n"]++
		}
	}

	// Instruments the program records when given a registry (exploration).
	hists := c.reg.Histograms()
	counters := c.reg.Counters()
	stage := func(hist, layer string) {
		if h, ok := hists[hist]; ok {
			out[layer+"_s"] += h.SumNs / 1e9
			out[layer+"_n"] += float64(h.Count)
		}
	}
	stage("stage.parse.ns", "isdl.parse")
	stage("stage.compile.ns", "compiler.compile")
	stage("stage.assemble.ns", "asm.assemble")
	if h, ok := hists["stage.simulate.ns"]; ok {
		run := float64(counters["xsim.run_ns"]) / 1e9
		out["xsim.simulate_n"] += float64(h.Count)
		out["xsim.run_s"] += run
		out["xsim.setup_s"] += h.SumNs/1e9 - run
	}
	if h, ok := hists["stage.synthesize.ns"]; ok {
		out["hgen.synthesize_n"] += float64(h.Count)
	}
	for _, ph := range []string{"share", "retime", "emit"} {
		if h, ok := hists["synth."+ph+".ns"]; ok {
			out["hgen."+ph+"_s"] += h.SumNs / 1e9
		}
	}
	if n, ok := counters["xsim.instructions"]; ok {
		out["xsim.instructions"] += float64(n)
	}
	_, setup := out["xsim.setup_s"]
	_, run := out["xsim.run_s"]
	if setup || run {
		out["xsim.simulate_s"] = out["xsim.setup_s"] + out["xsim.run_s"]
	}
	return out
}

// exploreLayers adds the exploration-level figures of a traced sample:
// stage-cache hit ratio, how many candidates got a score, and how busy the
// workers were inside pipeline stages.
func exploreLayers(c config, wall float64, workers int) {
	counters := c.reg.Counters()
	var hits, lookups uint64
	for name, v := range counters {
		if !strings.HasPrefix(name, "cache.") || strings.HasPrefix(name, "cache.store.") {
			continue
		}
		if strings.HasSuffix(name, ".hits") {
			hits += v
			lookups += v
		} else if strings.HasSuffix(name, ".misses") {
			lookups += v
		}
	}
	if lookups > 0 {
		c.add("core.cache_hit_ratio", float64(hits)/float64(lookups))
	}
	if cands := counters["explore.candidates"]; cands > 0 {
		scored := 1 + counters["explore.moves.accepted"] + counters["explore.moves.rejected"] + counters["explore.moves.constrained"]
		c.add("explore.scored_ratio", float64(scored)/float64(cands))
	}
	var busy float64
	for name, h := range c.reg.Histograms() {
		if strings.HasPrefix(name, "stage.") {
			busy += h.SumNs / 1e9
		}
	}
	c.add("explore.busy_share", busy/(wall*float64(workers)))
}
