package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestStageKeyDistinguishesInputs(t *testing.T) {
	base := StageKey(StageCombine, "machine A", "kernel 1", "label")
	if StageKey(StageCombine, "machine A", "kernel 1", "label") != base {
		t.Error("key not stable for identical inputs")
	}
	if StageKey(StageCombine, "machine B", "kernel 1", "label") == base {
		t.Error("key ignores the ISDL source")
	}
	if StageKey(StageCombine, "machine A", "kernel 2", "label") == base {
		t.Error("key ignores the kernel")
	}
	if StageKey(StageCombine, "machine A", "kernel 1", "other") == base {
		t.Error("key ignores the workload label")
	}
	if StageKey(StageSynthesize, "machine A", "kernel 1", "label") == base {
		t.Error("key ignores the stage")
	}
	// The length prefix keeps shifted concatenations apart.
	if StageKey(StageCombine, "machine A kernel", " 1") == StageKey(StageCombine, "machine A", " kernel 1") {
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
	k := StageKey(StageCombine, "m", "w")
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
	ps := c.PerStage()
	for s := Stage(0); s < NumStages; s++ {
		if s != StageCombine && (c.StageLen(s) != 0 || ps[s] != StageStats{}) {
			t.Errorf("stage %s: %d entries, %+v", s, c.StageLen(s), ps[s])
		}
	}
}

func TestCombineStageMemoizesFailures(t *testing.T) {
	c := NewStageCache()
	k := StageKey(StageCombine, "m", "w")
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
				k := StageKey(StageCombine, fmt.Sprintf("m%d", i%17), "w")
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
