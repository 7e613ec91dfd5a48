package core

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/blob"
	"repro/internal/obs"
)

// TestStageCacheStoreWriteThrough: Puts of the memoized stages land in
// the store, and a fresh cache over the same store serves them as hits.
func TestStageCacheStoreWriteThrough(t *testing.T) {
	st := blob.NewMem()
	a := NewStageCache()
	a.SetStore(st)

	ks := StageKey(StageSynthesize, "machine")
	a.Put(StageSynthesize, ks, SynthArtifact{CycleNs: 7.5, AreaCells: 1200}, nil)
	ke := StageKey(StageCombine, "machine", "kernel", "label")
	a.Put(StageCombine, ke, &Evaluation{Machine: "m", Cycles: 42, RuntimeUs: 1.5}, nil)
	if st.Len() != 2 {
		t.Fatalf("store holds %d blobs, want 2", st.Len())
	}

	b := NewStageCache()
	b.SetStore(st)
	v, err, ok := b.Get(StageSynthesize, ks)
	if !ok || err != nil || v.(SynthArtifact) != (SynthArtifact{CycleNs: 7.5, AreaCells: 1200}) {
		t.Fatalf("synthesize via store = (%v, %v, %v)", v, err, ok)
	}
	ev, err, ok := b.Get(StageCombine, ke)
	if !ok || err != nil {
		t.Fatalf("combine via store = (%v, %v, %v)", ev, err, ok)
	}
	if e := ev.(*Evaluation); e.Cycles != 42 || e.RuntimeUs != 1.5 {
		t.Fatalf("combine artifact mangled: %+v", e)
	}
	ps := b.PerStage()
	if ps[StageSynthesize].Hits != 1 || ps[StageSynthesize].Misses != 0 {
		t.Errorf("store-served Get counted as %d hits / %d misses", ps[StageSynthesize].Hits, ps[StageSynthesize].Misses)
	}
	if hits, misses, errs := b.StoreStats(); hits != 2 || misses != 0 || errs != 0 {
		t.Errorf("StoreStats = %d/%d/%d, want 2/0/0", hits, misses, errs)
	}
	// Second Get of the same key is a pure memory hit: no new store traffic.
	b.Get(StageSynthesize, ks)
	if hits, _, _ := b.StoreStats(); hits != 2 {
		t.Errorf("memory-tier hit went to the store (store hits %d)", hits)
	}
}

// Memoized deterministic failures travel through the store too.
func TestStageCacheStoreSharesFailures(t *testing.T) {
	st := blob.NewMem()
	a := NewStageCache()
	a.SetStore(st)
	k := StageKey(StageCombine, "machine", "bad kernel", "label")
	a.Put(StageCombine, k, (*Evaluation)(nil), fmt.Errorf("compile: no add operation"))

	b := NewStageCache()
	b.SetStore(st)
	_, err, ok := b.Get(StageCombine, k)
	if !ok || err == nil || err.Error() != "compile: no add operation" {
		t.Fatalf("failure via store = (%v, %v)", err, ok)
	}
}

// Unmemoized stages stay memory-only: nothing in the store, and a fresh
// cache misses.
func TestStageCacheStoreSkipsMemoryOnlyStages(t *testing.T) {
	st := blob.NewMem()
	a := NewStageCache()
	a.SetStore(st)
	k := StageKey(StageAssemble, "machine", "kernel")
	a.Put(StageAssemble, k, struct{ live bool }{true}, nil)
	if st.Len() != 0 {
		t.Fatalf("assemble entry leaked into the store (%d blobs)", st.Len())
	}
	b := NewStageCache()
	b.SetStore(st)
	if _, _, ok := b.Get(StageAssemble, k); ok {
		t.Fatal("assemble entry served from store")
	}
}

// TestStageCacheConcurrentStore exercises mixed Put/Get from many
// goroutines over a shared dir store; the race detector gives the
// verdict. (Satellite: concurrent StageCache traffic under -race.)
func TestStageCacheConcurrentStore(t *testing.T) {
	st, err := blob.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := NewStageCache()
	c.SetStore(st)
	c.Bind(obs.NewRegistry())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := StageKey(StageSynthesize, fmt.Sprint(i))
				want := SynthArtifact{AreaCells: float64(i)}
				c.Put(StageSynthesize, k, want, nil)
				if v, _, ok := c.Get(StageSynthesize, k); !ok || v.(SynthArtifact) != want {
					t.Errorf("goroutine %d: Get(%d) = (%v, %v)", g, i, v, ok)
					return
				}
				ke := StageKey(StageCombine, "m", fmt.Sprint(i))
				c.Put(StageCombine, ke, &Evaluation{Cycles: uint64(i)}, nil)
				c.Get(StageCombine, ke)
			}
		}(g)
	}
	wg.Wait()
}

// TestPipelineFullyServedFromStore is the tentpole property in one
// process pair: pipeline A evaluates against an empty shared store;
// pipeline B, with a cold memory cache over the same store, re-evaluates
// and recomputes nothing — every stage after Parse is zero-miss, the
// Combine hit short-circuits the walk, and the store-served evaluation
// equals the in-process one. (The cross-process version lives in
// internal/explore.)
func TestPipelineFullyServedFromStore(t *testing.T) {
	src := toyCanonical(t)
	st := blob.NewMem()

	ca := NewStageCache()
	ca.SetStore(st)
	a, err := (&Pipeline{Cache: ca}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	cb := NewStageCache()
	cb.SetStore(st)
	b, err := (&Pipeline{Cache: cb}).EvaluateKernel(src, pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}

	ps := cb.PerStage()
	for s := Stage(0); s < NumStages; s++ {
		if s == StageParse {
			continue // parse is never cached; its runs are counted as misses
		}
		if ps[s].Misses != 0 {
			t.Errorf("stage %s recomputed (%d misses) despite shared store", s, ps[s].Misses)
		}
	}
	if ps[StageCombine].Hits != 1 {
		t.Errorf("combine hits = %d, want 1 (store-served short circuit)", ps[StageCombine].Hits)
	}

	if !reflect.DeepEqual(a, b) {
		t.Errorf("store-served evaluation differs:\nA: %+v\nB: %+v", a, b)
	}
}

// hardwareKeyCombineBlob is the version-3 combine blob for (toy,
// pipeKernelA, "kernel") as written while Evaluation still carried the
// hardware model, which always serialized as "Hardware":null.
const hardwareKeyCombineBlob = `{"combine":{"Machine":"toy","Workload":"kernel","Cycles":3,"Instructions":3,` +
	`"Stats":{"Cycles":3,"Instructions":3,"DataStalls":0,"StructStalls":0,"Reads":2,"Writes":4,` +
	`"OpCounts":{"EX.add":1,"EX.halt":1,"EX.mv":1},"FieldIssue":[3]},"CycleNs":30.72,"AreaCells":13931,` +
	`"Hardware":null,"RuntimeUs":0.09215999999999999,"PowerMW":3.022653666666665,"EnergyUJ":0.0002785677619199998}}`

// TestDecodeCombineBlobWithHardwareKey pins why persistVersion did not
// change when the hardware model left Evaluation: encoding/json ignores
// the stale "Hardware" key, so such a blob decodes to exactly the
// evaluation computed today, and re-encodes to the same bytes minus the
// key.
func TestDecodeCombineBlobWithHardwareKey(t *testing.T) {
	e, err := decodeStageBlob(StageCombine, []byte(hardwareKeyCombineBlob))
	if err != nil {
		t.Fatal(err)
	}
	live, err := (&Pipeline{}).EvaluateKernel(toyCanonical(t), pipeKernelA, "kernel")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(e.val, live) {
		t.Errorf("decoded blob differs from the live evaluation:\ndecoded %+v\nlive    %+v", e.val, live)
	}
	want := strings.Replace(hardwareKeyCombineBlob, `"Hardware":null,`, "", 1)
	if data, ok := encodeStageBlob(e); !ok || string(data) != want {
		t.Errorf("re-encoded blob:\n%s\nwant\n%s", data, want)
	}
}
