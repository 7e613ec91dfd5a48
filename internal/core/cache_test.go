package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestEvalKeyDistinguishesInputs(t *testing.T) {
	base := EvalKey("machine A", "kernel 1")
	if EvalKey("machine A", "kernel 1") != base {
		t.Error("key not stable for identical inputs")
	}
	if EvalKey("machine B", "kernel 1") == base {
		t.Error("key ignores the ISDL source")
	}
	if EvalKey("machine A", "kernel 2") == base {
		t.Error("key ignores the workload")
	}
	// The length prefix keeps shifted concatenations apart.
	if EvalKey("machine A kernel", " 1") == EvalKey("machine A", " kernel 1") {
		t.Error("concatenation collision")
	}
}

// combineStats returns the final stage's hit and miss counts — the
// whole-pipeline memoization rate.
func combineStats(c *StageCache) (hits, misses uint64) {
	s := c.PerStage()[StageCombine]
	return s.Hits, s.Misses
}

func TestCombineStageHitMissCounting(t *testing.T) {
	c := NewStageCache()
	k := EvalKey("m", "w")
	if _, _, ok := c.Get(StageCombine, k); ok {
		t.Fatal("hit on empty cache")
	}
	want := &Evaluation{Machine: "m", Cycles: 42}
	c.Put(StageCombine, k, want, nil)
	got, err, ok := c.Get(StageCombine, k)
	if !ok || err != nil || got != want {
		t.Fatalf("Get = (%v, %v, %v), want cached evaluation", got, err, ok)
	}
	if hits, misses := combineStats(c); hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 1/1", hits, misses)
	}
	if n := c.StageLen(StageCombine); n != 1 {
		t.Errorf("StageLen = %d, want 1", n)
	}
	// Other stages' tables and counters are untouched.
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 1 {
		t.Errorf("aggregate stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestCombineStageMemoizesFailures(t *testing.T) {
	c := NewStageCache()
	k := EvalKey("m", "w")
	infeasible := errors.New("compile: no add operation")
	c.Put(StageCombine, k, nil, infeasible)
	ev, err, ok := c.Get(StageCombine, k)
	if !ok || ev != nil || !errors.Is(err, infeasible) {
		t.Fatalf("Get = (%v, %v, %v), want cached failure", ev, err, ok)
	}
}

// TestCombineStageConcurrent exercises the cache the way the parallel
// explorer does — many goroutines mixing Gets and Puts — and relies on the
// race detector for the actual verdict.
func TestCombineStageConcurrent(t *testing.T) {
	c := NewStageCache()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := EvalKey(fmt.Sprintf("m%d", i%17), "w")
				if _, _, ok := c.Get(StageCombine, k); !ok {
					c.Put(StageCombine, k, &Evaluation{Cycles: uint64(i)}, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.StageLen(StageCombine); n != 17 {
		t.Errorf("StageLen = %d, want 17", n)
	}
	hits, misses := combineStats(c)
	if hits+misses != 800 {
		t.Errorf("hits+misses = %d, want 800", hits+misses)
	}
}
