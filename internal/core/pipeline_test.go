package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
)

const pipeKernelA = "var x, y;\nx = 2;\ny = x + 3;\n"
const pipeKernelB = "var x, y;\nx = 4;\ny = x + x;\n"

func toyCanonical(t *testing.T) string {
	t.Helper()
	return isdl.Format(machines.Toy())
}

// statsDelta subtracts two per-stage snapshots.
func statsDelta(before, after [NumStages]StageStats) [NumStages]StageStats {
	var d [NumStages]StageStats
	for s := range after {
		d[s] = StageStats{Hits: after[s].Hits - before[s].Hits, Misses: after[s].Misses - before[s].Misses}
	}
	return d
}

func wantStage(t *testing.T, d [NumStages]StageStats, s Stage, hits, misses uint64) {
	t.Helper()
	if d[s].Hits != hits || d[s].Misses != misses {
		t.Errorf("stage %s: %d hits / %d misses, want %d/%d", s, d[s].Hits, d[s].Misses, hits, misses)
	}
}

// TestPipelineStageKeyComposition checks that each memoized key covers
// exactly its inputs: a formatting-only ISDL change reuses the whole
// evaluation, and a kernel-only change reuses the Synthesize artifact while
// redoing the workload-dependent stages.
func TestPipelineStageKeyComposition(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}

	base, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	cold := cache.PerStage()
	for s := StageCompile; s < NumStages; s++ {
		if cold[s].Misses != 1 || cold[s].Hits != 0 {
			t.Errorf("cold run, stage %s: %+v, want exactly one miss", s, cold[s])
		}
	}

	// Formatting-only change: same canonical text, so the evaluation key
	// already answers.
	reformatted := strings.ReplaceAll(src, "\n", "\n\n")
	if isdl.Format(mustParse(t, reformatted)) != src {
		t.Fatal("reformatted source is not formatting-only")
	}
	again, err := pipe.EvaluateKernel(reformatted, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Error("formatting-only change did not return the memoized evaluation")
	}
	d := statsDelta(cold, cache.PerStage())
	wantStage(t, d, StageCombine, 1, 0)
	for s := StageCompile; s < StageCombine; s++ {
		wantStage(t, d, s, 0, 0)
	}

	// Kernel-only change: Synthesize depends only on the description, so
	// its artifact is reused; the workload-dependent stages re-run.
	snap := cache.PerStage()
	kb, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	d = statsDelta(snap, cache.PerStage())
	wantStage(t, d, StageSynthesize, 1, 0)
	wantStage(t, d, StageCompile, 0, 1)
	wantStage(t, d, StageAssemble, 0, 1)
	wantStage(t, d, StageSimulate, 0, 1)
	wantStage(t, d, StageCombine, 0, 1)
	if kb.CycleNs != base.CycleNs || kb.AreaCells != base.AreaCells {
		t.Error("kernel-only change altered the hardware figures")
	}
}

// TestPipelineInstrumentation: with a registry configured, every executed
// stage leaves a latency histogram, a balanced in-flight gauge and a span;
// simulator perf counters and synthesis phase timings are published; and
// Bind re-homes the cache counters so hits/misses appear in the metrics.
func TestPipelineInstrumentation(t *testing.T) {
	src := toyCanonical(t)
	reg := obs.NewRegistry()
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache, Obs: reg}
	if _, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel"); err != nil {
		t.Fatal(err)
	}

	hists := reg.Histograms()
	for _, name := range []string{"stage.parse.ns", "stage.compile.ns", "stage.assemble.ns",
		"stage.simulate.ns", "stage.synthesize.ns", "stage.combine.ns",
		"synth.share.ns", "synth.retime.ns"} {
		if hists[name].Count == 0 {
			t.Errorf("histogram %s not recorded", name)
		}
	}
	for name, v := range reg.Gauges() {
		if v != 0 {
			t.Errorf("gauge %s = %d after completion, want 0", name, v)
		}
	}
	counters := reg.Counters()
	if counters["xsim.instructions"] == 0 {
		t.Error("simulator perf counters not published")
	}
	if v, ok := counters["synth.coexist.exhausted"]; !ok || v != 0 {
		t.Errorf("synth.coexist.exhausted = %d (present %v), want a published 0", v, ok)
	}
	spans := reg.Spans()
	if len(spans) != 4 { // compile, assemble, simulate, synthesize
		t.Errorf("got %d spans, want 4: %+v", len(spans), spans)
	}

	// Span linkage: a parent span makes stage spans its children.
	parent := reg.StartSpan("candidate")
	if _, err := pipe.EvaluateKernelTraced(src, pipeKernelB, "kernel", parent); err != nil {
		t.Fatal(err)
	}
	parent.End()
	var linked int
	for _, s := range reg.Spans() {
		if s.Parent != 0 {
			linked++
		}
	}
	// Compile, assemble, simulate re-ran under the parent; synthesize hit.
	if linked != 3 {
		t.Errorf("got %d child spans, want 3", linked)
	}

	// Bind carries accumulated counts into the registry.
	cache.Bind(reg)
	counters = reg.Counters()
	ps := cache.PerStage()
	if counters["cache.synthesize.hits"] != ps[StageSynthesize].Hits || ps[StageSynthesize].Hits == 0 {
		t.Errorf("bound hit counter = %d, want %d", counters["cache.synthesize.hits"], ps[StageSynthesize].Hits)
	}
	// Post-bind traffic lands in the registry counters too.
	if _, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel"); err != nil {
		t.Fatal(err)
	}
	after := reg.Counters()
	if after["cache.combine.hits"] != counters["cache.combine.hits"]+1 {
		t.Errorf("post-bind combine hits = %d, want %d", after["cache.combine.hits"], counters["cache.combine.hits"]+1)
	}
}

func mustParse(t *testing.T, src string) *isdl.Description {
	t.Helper()
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPipelineNilCache: the pipeline works without memoization and produces
// the same evaluation as the cached path.
func TestPipelineNilCache(t *testing.T) {
	src := toyCanonical(t)
	cached, err := (&Pipeline{Cache: NewStageCache()}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := (&Pipeline{}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, cached) {
		t.Errorf("uncached evaluation differs:\n%+v\n%+v", plain, cached)
	}
}

// TestPipelineMemoizesFailures: an uncompilable candidate is rejected once;
// the second attempt answers from the final stage.
func TestPipelineMemoizesFailures(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}
	bad := "var x;\nx = undefinedCall();\n"
	if _, err := pipe.EvaluateKernel(src, bad, "kernel"); err == nil {
		t.Fatal("expected a compile failure")
	}
	snap := cache.PerStage()
	_, err := pipe.EvaluateKernel(src, bad, "kernel")
	if err == nil {
		t.Fatal("memoized failure lost")
	}
	d := statsDelta(snap, cache.PerStage())
	wantStage(t, d, StageCombine, 1, 0)
	wantStage(t, d, StageCompile, 0, 0)
}

// TestPipelineKeysWorkloadLabel: the workload label is part of the
// evaluation key, so two evaluations that differ only in the label each
// report their own.
func TestPipelineKeysWorkloadLabel(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache()
	pipe := &Pipeline{Cache: cache}
	for _, label := range []string{"first", "second", "first"} {
		e, err := pipe.EvaluateKernel(src, pipeKernelA, label)
		if err != nil {
			t.Fatal(err)
		}
		if e.Workload != label {
			t.Errorf("EvaluateKernel(..., %q) returned workload %q", label, e.Workload)
		}
	}
	if ps := cache.PerStage(); ps[StageCombine] != (StageStats{Hits: 1, Misses: 2}) {
		t.Errorf("combine stage %+v, want 1 hit / 2 misses", ps[StageCombine])
	}
}

// TestRunSimulationLimit: a workload that does not halt within the
// instruction bound fails its evaluation and says so.
func TestRunSimulationLimit(t *testing.T) {
	d := machines.SPAM2()
	p, err := asm.Assemble(d, "loop: jmp loop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runSimulation(d, p, 10, "w", nil); err == nil || !strings.Contains(err.Error(), "halt") {
		t.Errorf("non-halting workload: err = %v", err)
	}
}
