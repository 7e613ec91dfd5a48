package explore_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
)

// maxRetainedPerEval bounds the live heap one cached evaluation may keep.
// Plain figures cost a few KB; a retained simulator (machine state and
// decode cache) or parsed description costs over a hundred.
const maxRetainedPerEval = 24 << 10

// TestCachedEvaluationsRetainOnlyFigures: after a riscv5 Pareto run, with
// the Result and the shared cache still alive, the heap the run left live
// stays within maxRetainedPerEval per cached evaluation, so cached
// evaluations keep no simulator or hardware model reachable.
func TestCachedEvaluationsRetainOnlyFigures(t *testing.T) {
	cache := core.NewStageCache(nil, nil)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	// sumKernel is examples/kernels/sum.k.
	res, err := explore.New(machines.RISCV5Source, sumKernel,
		explore.WithPareto(0, explore.Constraints{}),
		explore.WithMaxIters(3),
		explore.WithWorkers(2),
		explore.WithCache(cache)).Run()
	if err != nil {
		t.Fatal(err)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	// Every combine miss stores one evaluation: the Pareto walk never
	// evaluates a text twice within an iteration.
	n := cache.PerStage()[core.StageCombine].Misses
	if n == 0 {
		t.Fatal("no evaluation was cached")
	}
	perEval := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(n)
	t.Logf("%d cached evaluations, %d bytes live heap each", n, perEval)
	if perEval >= maxRetainedPerEval {
		t.Errorf("%d bytes of live heap per cached evaluation, want under %d", perEval, maxRetainedPerEval)
	}
	runtime.KeepAlive(res)
	runtime.KeepAlive(cache)
}
