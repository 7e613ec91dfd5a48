package core

// The staged evaluation pipeline. The paper's Figure 1 loop regenerates
// every tool from one ISDL description per candidate:
//
//	Parse or derive → CompileKernel → Assemble → Simulate ┐
//	                                Synthesize ───────────┴→ Combine
//
// The first stage builds the candidate's description: it parses user text,
// or derives an explorer move from its parent's description
// (isdl.Derive). Each stage is a pure function of its inputs. The Pipeline
// memoizes the two artifacts that are ever reused (see cache.go and
// docs/PIPELINE.md): the whole evaluation, so a repeated candidate costs
// one build, and the synthesis figures, so a kernel-only change skips
// synthesis. With a store attached, both are shared across processes and
// runs.

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

// ParseError reports a candidate that is no description at all: an ISDL
// text that failed to parse, or a description derived from a valid one
// (isdl.Derive) that failed the semantic checks. Every later pipeline
// failure is a property of a valid description and the workload; a
// ParseError lets the explorer drop a mutation that produced no
// description instead of reporting it as an infeasible candidate.
type ParseError struct{ Err error }

func (e *ParseError) Error() string { return "core: parse ISDL: " + e.Err.Error() }

func (e *ParseError) Unwrap() error { return e.Err }

// Pipeline runs the staged methodology with memoization.
type Pipeline struct {
	// Cache memoizes whole evaluations and synthesis figures and counts
	// every stage's runs. It is required.
	Cache *StageCache
	// Obs receives per-stage latency histograms (stage.<name>.ns),
	// in-flight gauges (pipeline.<name>.inflight), one span per executed
	// stage, simulator perf counters and synthesis phase timings; a nil
	// registry records nothing. The Cache counts its hits and misses into
	// the registry it was built with (NewStageCache).
	Obs *obs.Registry
}

// EvaluateKernel runs the full pipeline for one candidate ISDL source and
// one kernel-language workload: parse, compile the kernel, assemble,
// simulate, synthesize, and combine. Executed stages become children of
// parent in the exported trace (the explorer passes its per-candidate
// span, served its job span); a nil parent starts them at the root.
//
// The source is parsed and keyed by its canonical form, isdl.Format of
// the parsed description, so formatting differences never split one
// architecture; see EvaluateBuild for the rest.
func (p *Pipeline) EvaluateKernel(isdlSrc, kernel, workload string, parent *obs.Span) (ev *Evaluation, cached bool, err error) {
	return p.EvaluateBuild(func() (*isdl.Description, string, error) {
		d, err := isdl.Parse(isdlSrc)
		if err != nil {
			return nil, "", err
		}
		return d, isdl.Format(d), nil
	}, kernel, workload, parent)
}

// EvaluateBuild runs the full pipeline for the candidate build makes.
// build returns the candidate's description and its key: canonical ISDL
// text of that description, which EvaluateKernel computes and an explorer
// move already holds. Running build is the parse stage. A build that
// fails is returned as a *ParseError.
//
// The whole evaluation is memoized under (key, kernel, workload label)
// and the synthesis figures under the key alone, and cached reports that
// the cache answered the evaluation key, from memory or from the store,
// so no stage after the build ran. Build errors are returned unmemoized
// (a text that is no description has no canonical form to key by); all
// later deterministic failures are memoized under the evaluation key, so
// an infeasible candidate is rejected once per cache lifetime.
func (p *Pipeline) EvaluateBuild(build func() (*isdl.Description, string, error), kernel, workload string, parent *obs.Span) (ev *Evaluation, cached bool, err error) {
	// Never memoized: the artifact would be a mutable AST, which stages
	// deliberately do not share across candidates.
	p.Cache.countRun(StageParse)
	start := time.Now()
	d, key, err := build()
	p.Obs.Histogram("stage.parse.ns").Observe(time.Since(start))
	if err != nil {
		return nil, false, &ParseError{Err: err}
	}

	return memo(p.Cache, StageCombine, StageKey(StageCombine, key, kernel, workload), func() (*Evaluation, error) {
		return p.runStages(d, key, kernel, workload, parent)
	})
}

// runStages is the pipeline after the build. Compile, assemble and simulate
// are not memoized: the evaluation key already answers every repeat that
// could reach them.
func (p *Pipeline) runStages(d *isdl.Description, key, kernel, workload string, parent *obs.Span) (*Evaluation, error) {
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
	synthArt, _, err := memo(p.Cache, StageSynthesize, StageKey(StageSynthesize, key), func() (SynthArtifact, error) {
		return stageRun(p, parent, StageSynthesize, func() (SynthArtifact, error) {
			return synthesize(d, p.Obs)
		})
	})
	if err != nil {
		return nil, err
	}

	// Combine: pure arithmetic over the two artifacts; memoized as the
	// whole evaluation by EvaluateKernel.
	start := time.Now()
	e := combineArtifacts(d.Name, workload, stats, synthArt)
	p.Obs.Histogram("stage.combine.ns").Observe(time.Since(start))
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
	sim.Perf().Publish(r)
	if err != nil {
		return xsim.Stats{}, fmt.Errorf("core: simulate: %w", err)
	}
	if !sim.Halted() {
		return xsim.Stats{}, fmt.Errorf("core: workload %s did not halt within %d instructions", workload, limit)
	}
	return sim.Stats(), nil
}

// synthesize builds the hardware model and returns its cost figures; the
// model itself is dropped here. The synthesis phase timings and the
// exhausted constraint-search count are published into r.
func synthesize(d *isdl.Description, r *obs.Registry) (SynthArtifact, error) {
	opts := hgen.DefaultOptions()
	opts.EmitVerilog = false // exploration needs only the cost model
	hw, err := hgen.Synthesize(d, lib, opts)
	if err != nil {
		return SynthArtifact{}, fmt.Errorf("core: synthesize: %w", err)
	}
	for ph, sec := range hw.PhaseSeconds {
		r.Histogram("synth." + ph + ".ns").ObserveNs(sec * 1e9)
	}
	r.Counter("synth.coexist.exhausted").Add(uint64(hw.CoexistExhausted))
	return SynthArtifact{CycleNs: hw.CycleNs, AreaCells: hw.AreaCells, EnergyPerInstrPJ: hw.EnergyPerInstrPJ}, nil
}

// memo answers a memoized stage from the cache, or runs it and stores
// its artifact (or deterministic error) under the key. The bool reports
// that the cache answered.
func memo[T any](c *StageCache, s Stage, k CacheKey, run func() (T, error)) (T, bool, error) {
	if v, err, ok := c.Get(s, k); ok {
		t, _ := v.(T)
		return t, true, err
	}
	t, err := run()
	c.Put(s, k, t, err)
	return t, false, err
}

// stageRun runs one stage, instrumented with a latency histogram, an
// in-flight gauge and a span. A run of an unmemoized stage counts as a
// cache miss; a memoized stage's lookup in memo counts its own.
func stageRun[T any](p *Pipeline, parent *obs.Span, s Stage, run func() (T, error)) (T, error) {
	if !memoized[s] {
		p.Cache.countRun(s)
	}
	r := p.Obs
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
