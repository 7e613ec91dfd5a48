package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
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
	cache := NewStageCache(nil, nil)
	pipe := &Pipeline{Cache: cache}

	base, cached, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("cold evaluation reported cached")
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
	again, cached, err := pipe.EvaluateKernel(reformatted, pipeKernelA, "kernel", nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != base || !cached {
		t.Errorf("formatting-only change: memoized evaluation returned %v, cached %v; want both", again == base, cached)
	}
	d := statsDelta(cold, cache.PerStage())
	wantStage(t, d, StageCombine, 1, 0)
	for s := StageCompile; s < StageCombine; s++ {
		wantStage(t, d, s, 0, 0)
	}

	// Kernel-only change: Synthesize depends only on the description, so
	// its artifact is reused; the workload-dependent stages re-run.
	snap := cache.PerStage()
	kb, cached, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel", nil)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("kernel-only change reported cached; only synthesis was reused")
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
// a cache built over the registry counts its hits and misses there.
func TestPipelineInstrumentation(t *testing.T) {
	src := toyCanonical(t)
	reg := obs.NewRegistry()
	cache := NewStageCache(reg, nil)
	pipe := &Pipeline{Cache: cache, Obs: reg}
	if _, _, err := pipe.EvaluateKernel(src, pipeKernelA, "kernel", nil); err != nil {
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
	if _, _, err := pipe.EvaluateKernel(src, pipeKernelB, "kernel", parent); err != nil {
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

	// The cache's counters are the registry's.
	counters = reg.Counters()
	ps := cache.PerStage()
	for s := Stage(0); s < NumStages; s++ {
		if counters["cache."+s.String()+".hits"] != ps[s].Hits || counters["cache."+s.String()+".misses"] != ps[s].Misses {
			t.Errorf("stage %s: registry %d/%d, cache %+v", s,
				counters["cache."+s.String()+".hits"], counters["cache."+s.String()+".misses"], ps[s])
		}
	}
	if ps[StageSynthesize].Hits != 1 || ps[StageCombine].Misses != 2 {
		t.Errorf("synthesize %+v, combine %+v; want 1 synthesize hit and 2 combine misses", ps[StageSynthesize], ps[StageCombine])
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

// TestPipelineMatchesEvaluate: the pipeline's evaluation equals
// Evaluate's on the same compiled program, the uncached reference, and so
// does the memo hit that answers the repeat.
func TestPipelineMatchesEvaluate(t *testing.T) {
	d := machines.Toy()
	asmText, err := compiler.Compile(d, pipeKernelA)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(d, asmText)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Evaluate(d, prog, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	pipe := &Pipeline{Cache: NewStageCache(nil, nil)}
	for _, wantCached := range []bool{false, true} {
		ev, cached, err := pipe.EvaluateKernel(isdl.Format(d), pipeKernelA, "kernel", nil)
		if err != nil {
			t.Fatal(err)
		}
		if cached != wantCached {
			t.Errorf("cached = %v, want %v", cached, wantCached)
		}
		if !reflect.DeepEqual(ev, ref) {
			t.Errorf("pipeline evaluation (cached %v) differs from Evaluate:\n%+v\n%+v", cached, ev, ref)
		}
	}
}

// TestPipelineMemoizesFailures: an uncompilable candidate is rejected once;
// the second attempt answers from the final stage.
func TestPipelineMemoizesFailures(t *testing.T) {
	src := toyCanonical(t)
	cache := NewStageCache(nil, nil)
	pipe := &Pipeline{Cache: cache}
	bad := "var x;\nx = undefinedCall();\n"
	if _, _, err := pipe.EvaluateKernel(src, bad, "kernel", nil); err == nil {
		t.Fatal("expected a compile failure")
	}
	snap := cache.PerStage()
	_, cached, err := pipe.EvaluateKernel(src, bad, "kernel", nil)
	if err == nil || !cached {
		t.Fatalf("second attempt: err %v, cached %v; want the memoized failure", err, cached)
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
	cache := NewStageCache(nil, nil)
	pipe := &Pipeline{Cache: cache}
	for _, label := range []string{"first", "second", "first"} {
		e, _, err := pipe.EvaluateKernel(src, pipeKernelA, label, nil)
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
