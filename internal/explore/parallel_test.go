package explore_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// sumKernel is a small loop that leaves removable operations on the table.
const sumKernel = "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n"

// runConfig runs one exploration of SPAM with the given worker count over
// a small kernel that leaves removable operations on the table, on the
// given stage cache (nil = the run's own fresh cache).
func runConfig(t *testing.T, workers int, cache *core.StageCache) (*explore.Result, []string) {
	t.Helper()
	var lines []string
	opts := []explore.Option{
		explore.WithMaxIters(3),
		explore.WithWorkers(workers),
		explore.WithLog(func(ev explore.Event) { lines = append(lines, ev.Line) }),
	}
	if cache != nil {
		opts = append(opts, explore.WithCache(cache))
	}
	res, err := explore.New(machines.SPAMSource, sumKernel, opts...).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res, lines
}

// sameResult asserts two exploration runs are bit-identical where the
// engine promises determinism: final source, scores, and the step set.
func sameResult(t *testing.T, name string, a, b *explore.Result) {
	t.Helper()
	if a.FinalSource != b.FinalSource {
		t.Errorf("%s: FinalSource differs", name)
	}
	w := explore.DefaultWeights()
	score := func(r *explore.Result) (float64, float64) {
		return r.Initial.Score(w.Runtime, w.Area, w.Power), r.Final.Score(w.Runtime, w.Area, w.Power)
	}
	ai, af := score(a)
	bi, bf := score(b)
	if ai != bi || af != bf {
		t.Errorf("%s: scores differ: (%v, %v) vs (%v, %v)", name, ai, af, bi, bf)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: step counts differ: %d vs %d", name, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Iter != sb.Iter || sa.Action != sb.Action || sa.Score != sb.Score || sa.Accepted != sb.Accepted {
			t.Errorf("%s: step %d differs: %+v vs %+v", name, i, sa, sb)
		}
		if sa.Eval.Cycles != sb.Eval.Cycles || sa.Eval.AreaCells != sb.Eval.AreaCells || sa.Eval.PowerMW != sb.Eval.PowerMW {
			t.Errorf("%s: step %d evaluation differs", name, i)
		}
	}
}

// TestExploreParallelDeterministic: concurrent neighbour evaluation and the
// memoizing cache must not change the exploration outcome — parallel runs
// are bit-identical to Workers=1, and runs answered from a warm shared
// cache to runs on a fresh one.
func TestExploreParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	seq, _ := runConfig(t, 1, nil)
	shared := core.NewStageCache(nil, nil)
	cold, _ := runConfig(t, 1, shared)
	sameResult(t, "workers=1, cold shared cache", seq, cold)
	warmMisses := shared.PerStage()[core.StageCombine].Misses
	for _, tc := range []struct {
		name    string
		workers int
		cache   *core.StageCache
	}{
		{"workers=1, warm cache", 1, shared},
		{"workers=4", 4, nil},
		{"workers=4, warm cache", 4, shared},
		{"workers=32, warm cache", 32, shared},
	} {
		res, _ := runConfig(t, tc.workers, tc.cache)
		sameResult(t, tc.name, seq, res)
	}
	if m := shared.PerStage()[core.StageCombine].Misses; m != warmMisses {
		t.Errorf("warm runs missed the shared cache %d times, want every evaluation served", m-warmMisses)
	}
}

// TestExploreSharedCacheAcrossRuns: weights fold an evaluation into the
// objective *after* the pipeline, so a weight sweep over the same base and
// kernel can share one cache — the second run's candidates should be
// overwhelmingly hits.
func TestExploreSharedCacheAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	cache := core.NewStageCache(nil, nil)
	run := func(w explore.Weights) {
		_, err := explore.New(machines.SPAMSource, sumKernel,
			explore.WithWeights(w),
			explore.WithMaxIters(2),
			explore.WithWorkers(2),
			explore.WithCache(cache),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
	}
	combine := func() (hits, misses uint64) {
		s := cache.PerStage()[core.StageCombine]
		return s.Hits, s.Misses
	}
	run(explore.Weights{Runtime: 1, Area: 0.5, Power: 0.2})
	h1, m1 := combine()
	run(explore.Weights{Runtime: 1, Area: 5, Power: 0.2})
	h2, m2 := combine()
	newHits, newMisses := h2-h1, m2-m1
	if newHits <= newMisses {
		t.Errorf("weight-sweep run: %d hits / %d misses, want mostly hits", newHits, newMisses)
	}
}

// TestExploreInstrumentedExactCounters (runs under -race in CI): parallel
// exploration over a shared obs.Registry must lose no increments — the
// concurrently-bumped counters must agree exactly with the event stream,
// which Run emits race-free from its own goroutine — and instrumentation
// must not change the outcome: results stay bit-identical to an
// uninstrumented run.
func TestExploreInstrumentedExactCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	plain, _ := runConfig(t, 8, nil)

	reg := obs.NewRegistry()
	var events []explore.Event
	res, err := explore.New(machines.SPAMSource, sumKernel,
		explore.WithMaxIters(3),
		explore.WithWorkers(8),
		explore.WithObs(reg),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "instrumented", plain, res)

	byKind := map[string]uint64{}
	for _, ev := range events {
		byKind[ev.Kind]++
	}
	c := reg.Counters()
	// Every evaluated candidate (the base plus each neighbour) increments
	// explore.candidates from a worker goroutine.
	wantCandidates := 1 + byKind["candidate"] + byKind["infeasible"]
	if c["explore.candidates"] != wantCandidates {
		t.Errorf("explore.candidates = %d, want %d", c["explore.candidates"], wantCandidates)
	}
	var accepted, rejected uint64
	for _, s := range res.Steps {
		if s.Accepted {
			accepted++
		} else {
			rejected++
		}
	}
	if c["explore.moves.accepted"] != accepted {
		t.Errorf("explore.moves.accepted = %d, want %d", c["explore.moves.accepted"], accepted)
	}
	if c["explore.moves.rejected"] != rejected {
		t.Errorf("explore.moves.rejected = %d, want %d", c["explore.moves.rejected"], rejected)
	}
	if c["explore.moves.infeasible"] != byKind["infeasible"] {
		t.Errorf("explore.moves.infeasible = %d, want %d", c["explore.moves.infeasible"], byKind["infeasible"])
	}

	// The pipeline, stage cache and simulator report through the same
	// registry.
	if reg.Histograms()["stage.simulate.ns"].Count == 0 {
		t.Error("no simulate-stage latency observations")
	}
	if c["xsim.instructions"] == 0 {
		t.Error("no simulator perf counters published")
	}
	if c["cache.combine.misses"] == 0 {
		t.Error("stage-cache counters missing from the registry")
	}

	// Spans: one per iteration (the cache event count is the iteration
	// count) and one per evaluated candidate.
	spanCount := map[string]uint64{}
	for _, s := range reg.Spans() {
		spanCount[s.Name]++
	}
	if spanCount["candidate"] != wantCandidates {
		t.Errorf("candidate spans = %d, want %d", spanCount["candidate"], wantCandidates)
	}
	if spanCount["iteration"] != byKind["cache"] {
		t.Errorf("iteration spans = %d, want %d", spanCount["iteration"], byKind["cache"])
	}
}

// TestExploreCacheHitsAcrossIterations: the hill climb revisits equivalent
// architectures across iterations (e.g. the inverse of an accepted retiming
// move regenerates the previous candidate), so a multi-iteration run must
// report cache hits in the exploration log.
func TestExploreCacheHitsAcrossIterations(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	_, lines := runConfig(t, 4, nil)
	var cacheLines []string
	for _, l := range lines {
		if strings.Contains(l, "cache") {
			cacheLines = append(cacheLines, l)
		}
	}
	if len(cacheLines) == 0 {
		t.Fatal("no cache statistics in the exploration log")
	}
	last := cacheLines[len(cacheLines)-1]
	for _, stage := range []string{"parse", "compile", "assemble", "simulate", "synthesize", "combine"} {
		if !strings.Contains(last, stage) {
			t.Errorf("per-stage cache line misses stage %q: %q", stage, last)
		}
	}
	if strings.Contains(last, "combine 0/") {
		t.Errorf("expected cross-iteration whole-pipeline hits, got %q", last)
	}
}
