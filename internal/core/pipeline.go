package core

// The staged evaluation pipeline. The paper's Figure 1 loop regenerates
// every tool from one ISDL description per candidate:
//
//	Parse → CompileKernel → Assemble → Simulate ┐
//	                      Synthesize ───────────┴→ Combine
//
// Each stage is a pure function of its inputs. The Pipeline memoizes the
// two artifacts that are ever reused (see cache.go and docs/PIPELINE.md):
// the whole evaluation, so a repeated candidate costs one parse, and the
// synthesis figures, so a kernel-only change skips synthesis. With a
// store attached, both are shared across processes and runs.

import (
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/obs"
	"repro/internal/xsim"
)

// SynthArtifact is the Synthesize stage's result: the cost figures Combine
// needs, and nothing else of the hardware model.
type SynthArtifact struct {
	CycleNs          float64
	AreaCells        float64
	EnergyPerInstrPJ float64
}

// ParseError reports an ISDL text that failed to parse. Every later
// pipeline failure is a property of a valid description and the workload;
// a ParseError says the text is no description at all, which lets the
// explorer drop a mutation that produced one instead of reporting it as an
// infeasible candidate.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return "core: parse ISDL: " + e.Err.Error() }

func (e *ParseError) Unwrap() error { return e.Err }

// Pipeline runs the staged methodology with memoization.
type Pipeline struct {
	// Cache memoizes whole evaluations and synthesis figures and counts
	// every stage's runs; nil runs every stage every time.
	Cache *StageCache
	// Obs receives per-stage latency histograms (stage.<name>.ns),
	// in-flight gauges (pipeline.<name>.inflight), one span per executed
	// stage, simulator perf counters and synthesis phase timings. Nil
	// disables instrumentation entirely (no clock reads on the hot path).
	// Obs does not bind the Cache's hit/miss counters — call
	// Cache.Bind(Obs) for that.
	Obs *obs.Registry
}

// EvaluateKernel runs the full pipeline for one candidate ISDL source and
// one kernel-language workload: parse, compile the kernel, assemble,
// simulate, synthesize, and combine. With a cache, the whole evaluation
// is memoized under (canonical ISDL, kernel, workload label) and the
// synthesis figures under the canonical ISDL alone. Parse errors are
// returned unmemoized, as a *ParseError (an unparsable text has no
// canonical form to key by); all later deterministic failures are
// memoized under the evaluation key, so an infeasible candidate is
// rejected once per cache lifetime.
func (p *Pipeline) EvaluateKernel(isdlSrc, kernel, workload string) (*Evaluation, error) {
	return p.EvaluateKernelTraced(isdlSrc, kernel, workload, nil)
}

// EvaluateKernelTraced is EvaluateKernel with span linkage: executed
// stages become children of parent in the exported trace (the explorer
// passes its per-candidate span). A nil parent starts stage spans at the
// root; with a nil Obs registry it behaves exactly like EvaluateKernel.
func (p *Pipeline) EvaluateKernelTraced(isdlSrc, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	c := p.Cache

	// Parse + canonicalize. Never memoized: the artifact would be a mutable
	// AST, which stages deliberately do not share across candidates.
	if c != nil {
		c.countRun(StageParse)
	}
	var start time.Time
	if p.Obs != nil {
		start = time.Now()
	}
	d, err := isdl.Parse(isdlSrc)
	if p.Obs != nil {
		p.Obs.Histogram("stage.parse.ns").Observe(time.Since(start))
	}
	if err != nil {
		return nil, &ParseError{Err: err}
	}
	canonical := isdl.Format(d)

	return memo(c, StageCombine, StageKey(StageCombine, canonical, kernel, workload), func() (*Evaluation, error) {
		return p.runStages(d, canonical, kernel, workload, parent)
	})
}

// runStages is the post-parse pipeline. Compile, assemble and simulate
// are not memoized: the evaluation key already answers every repeat that
// could reach them.
func (p *Pipeline) runStages(d *isdl.Description, canonical, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
	asmText, err := stageRun(p, parent, StageCompile, func() (string, error) {
		return compiler.Compile(d, kernel)
	})
	if err != nil {
		return nil, err
	}
	prog, err := stageRun(p, parent, StageAssemble, func() (*asm.Program, error) {
		return asm.Assemble(d, asmText)
	})
	if err != nil {
		return nil, err
	}
	stats, err := stageRun(p, parent, StageSimulate, func() (xsim.Stats, error) {
		return runSimulation(d, prog, maxInstructions, workload, p.Obs)
	})
	if err != nil {
		return nil, err
	}

	// Synthesize: independent of the workload, so a kernel change reuses
	// the synthesis figures.
	synthArt, err := memo(p.Cache, StageSynthesize, StageKey(StageSynthesize, canonical), func() (SynthArtifact, error) {
		return stageRun(p, parent, StageSynthesize, func() (SynthArtifact, error) {
			return synthesize(d, p.Obs)
		})
	})
	if err != nil {
		return nil, err
	}

	// Combine: pure arithmetic over the two artifacts; memoized as the
	// whole evaluation by EvaluateKernelTraced.
	var start time.Time
	if p.Obs != nil {
		start = time.Now()
	}
	e := combineArtifacts(d.Name, workload, stats, synthArt)
	if p.Obs != nil {
		p.Obs.Histogram("stage.combine.ns").Observe(time.Since(start))
	}
	return e, nil
}

// runSimulation executes a program on a fresh interpreter, at most limit
// instructions, and returns its statistics snapshot; the simulator's own
// perf counters are published into the registry (they are per-run deltas
// here, so repeated publishes sum to the total simulated work).
func runSimulation(d *isdl.Description, prog *asm.Program, limit int64, workload string, r *obs.Registry) (xsim.Stats, error) {
	sim := xsim.New(d)
	if err := sim.Load(prog); err != nil {
		return xsim.Stats{}, fmt.Errorf("core: load: %w", err)
	}
	err := sim.Run(limit)
	if r != nil {
		sim.Perf().Publish(r)
	}
	if err != nil {
		return xsim.Stats{}, fmt.Errorf("core: simulate: %w", err)
	}
	if !sim.Halted() {
		return xsim.Stats{}, fmt.Errorf("core: workload %s did not halt within %d instructions", workload, limit)
	}
	return sim.Stats(), nil
}

// synthesize builds the hardware model and returns its cost figures; the
// model itself is dropped here. With a registry, the synthesis phase
// timings and the exhausted constraint-search count are published.
func synthesize(d *isdl.Description, r *obs.Registry) (SynthArtifact, error) {
	opts := hgen.DefaultOptions()
	opts.EmitVerilog = false // exploration needs only the cost model
	hw, err := hgen.Synthesize(d, lib, opts)
	if err != nil {
		return SynthArtifact{}, fmt.Errorf("core: synthesize: %w", err)
	}
	if r != nil {
		for ph, sec := range hw.PhaseSeconds {
			r.Histogram("synth." + ph + ".ns").ObserveNs(sec * 1e9)
		}
		r.Counter("synth.coexist.exhausted").Add(uint64(hw.CoexistExhausted))
	}
	return SynthArtifact{CycleNs: hw.CycleNs, AreaCells: hw.AreaCells, EnergyPerInstrPJ: hw.EnergyPerInstrPJ}, nil
}

// memo answers a memoized stage from the cache, or runs it and stores
// its artifact (or deterministic error) under the key. With a nil cache it
// just runs the stage.
func memo[T any](c *StageCache, s Stage, k CacheKey, run func() (T, error)) (T, error) {
	if c == nil {
		return run()
	}
	if v, err, ok := c.Get(s, k); ok {
		t, _ := v.(T)
		return t, err
	}
	t, err := run()
	c.Put(s, k, t, err)
	return t, err
}

// stageRun runs one stage, instrumented with a latency histogram, an
// in-flight gauge and a span when the pipeline has a registry. A run of an
// unmemoized stage counts as a cache miss; a memoized stage's lookup in
// memo counts its own.
func stageRun[T any](p *Pipeline, parent *obs.Span, s Stage, run func() (T, error)) (T, error) {
	if c := p.Cache; c != nil && !memoized[s] {
		c.countRun(s)
	}
	r := p.Obs
	if r == nil {
		return run()
	}
	var sp *obs.Span
	if parent != nil {
		sp = parent.Child(s.String())
	} else {
		sp = r.StartSpan(s.String())
	}
	r.Gauge("pipeline." + s.String() + ".inflight").Add(1)
	start := time.Now()
	t, err := run()
	r.Histogram("stage." + s.String() + ".ns").Observe(time.Since(start))
	r.Gauge("pipeline." + s.String() + ".inflight").Add(-1)
	if err != nil {
		sp.SetArg("err", err.Error())
	}
	sp.End()
	return t, err
}
