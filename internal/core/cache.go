package core

// Stage-level memoization. One hill-climbing iteration regenerates many
// candidates a previous iteration already scored (only one operation
// changes per accepted move), and the paper's single-description design
// makes every generated tool a pure function of its inputs: synthesis
// depends only on the ISDL description, compilation and assembly only on
// the (description, kernel) pair, simulation only on the description and
// the program image. The StageCache keys each pipeline stage's artifact by
// a cryptographic hash of exactly those inputs — canonical ISDL text
// (isdl.Format output) so that formatting differences never split
// equivalent architectures — so a stage re-runs only when something it
// actually reads has changed.

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Stage enumerates the evaluation pipeline's stages (docs/PIPELINE.md).
type Stage uint8

const (
	// StageParse is ISDL parsing + canonicalization. It is never cached —
	// the artifact would be a mutable AST, which stages deliberately do
	// not share across goroutines — but its runs are counted so the
	// metrics show the full pipeline.
	StageParse Stage = iota
	// StageCompile is the retargetable compiler: (canonical ISDL, kernel)
	// → assembly text.
	StageCompile
	// StageAssemble is the assembler: (canonical ISDL, kernel) →
	// *asm.Program.
	StageAssemble
	// StageSimulate is the instruction-level simulator: (canonical ISDL,
	// program image) → SimArtifact.
	StageSimulate
	// StageSynthesize is the hardware model: canonical ISDL →
	// SynthArtifact.
	StageSynthesize
	// StageCombine folds simulation and synthesis into the final
	// *Evaluation, keyed like the whole pipeline: (canonical ISDL,
	// kernel) via EvalKey.
	StageCombine
	// StageCodegen is the aot simulator generator (internal/gensim):
	// canonical ISDL → generated+compiled specialized simulator binary.
	// Only run when the evaluator selects the aot backend. Memoized in
	// process (success and unsupported-description outcomes) but never
	// persisted — the artifact is a path into gensim's own on-disk build
	// cache, which already survives processes.
	StageCodegen
	// NumStages is the stage count (for iteration).
	NumStages
)

var stageNames = [NumStages]string{"parse", "compile", "assemble", "simulate", "synthesize", "combine", "codegen"}

// String returns the stage's short name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// CacheKey identifies one stage artifact (or one whole-pipeline
// evaluation). Build it with StageKey, or EvalKey for the final stage.
type CacheKey [sha256.Size]byte

// StageKey hashes a stage tag and its input parts into a cache key. Every
// part is length-prefixed, so no two distinct part sequences collide by
// concatenation, and the stage tag separates the key domains.
func StageKey(s Stage, parts ...string) CacheKey {
	h := sha256.New()
	h.Write([]byte{'s', byte(s)})
	var n [8]byte
	for _, p := range parts {
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// EvalKey hashes a canonical ISDL source and a workload identity (the kernel
// or assembly text plus any label that selects the workload) into the final
// stage's cache key. The two inputs are length-prefix separated, so no pair
// of distinct (source, workload) inputs can collide by concatenation.
func EvalKey(canonicalISDL, workload string) CacheKey {
	h := sha256.New()
	var n [8]byte
	for i, l := 0, len(canonicalISDL); i < 8; i++ {
		n[i] = byte(l >> (8 * i))
	}
	h.Write(n[:])
	h.Write([]byte(canonicalISDL))
	h.Write([]byte(workload))
	var k CacheKey
	h.Sum(k[:0])
	return k
}

// stageEntry records one completed stage run: either an artifact or the
// deterministic error the stage produced (an infeasible candidate stays
// infeasible, so failures are worth memoizing too).
type stageEntry struct {
	val any
	err error
}

// StageStats are one stage's hit and miss counts.
type StageStats struct {
	Hits, Misses uint64
}

// StageCache is a thread-safe memo table for pipeline stage artifacts. A
// cache is only valid for one evaluator configuration (technology library,
// synthesis options, instruction limit) — the keys do not cover it — so
// use a fresh cache per configuration. Entries never expire otherwise: a
// stage's inputs fully determine its deterministic result.
//
// Hit and miss counts live in obs.Counter instruments: standalone ones by
// default, or — after Bind — counters owned by an obs.Registry, so cache
// traffic appears in exported metrics under cache.<stage>.hits/.misses.
//
// Cached artifacts are shared across callers (and goroutines) and must be
// treated as immutable.
//
// The memory tables are the first tier. With SetStore, a BlobStore
// (internal/blob — shared directory or remote HTTP) becomes the second:
// serializable stage artifacts are written through on Put and consulted
// on a memory miss, so processes sharing a store share every artifact
// (see blobstore.go and docs/PIPELINE.md).
type StageCache struct {
	mu     sync.Mutex
	tables [NumStages]map[CacheKey]stageEntry
	hits   [NumStages]*obs.Counter
	misses [NumStages]*obs.Counter
	bound  *obs.Registry // registry the counters live in, nil if standalone
	store  BlobStore     // second tier, nil for memory-only
	// Store-tier traffic, in registry counters after Bind
	// (cache.store.hits/.misses/.errors).
	storeHits, storeMisses, storeErrs *obs.Counter
}

// NewStageCache returns an empty cache.
func NewStageCache() *StageCache {
	c := &StageCache{}
	for i := range c.tables {
		c.tables[i] = map[CacheKey]stageEntry{}
		c.hits[i] = obs.NewCounter()
		c.misses[i] = obs.NewCounter()
	}
	c.storeHits = obs.NewCounter()
	c.storeMisses = obs.NewCounter()
	c.storeErrs = obs.NewCounter()
	return c
}

// Bind re-homes the cache's hit/miss counters into a registry, under
// cache.<stage>.hits and cache.<stage>.misses. Counts accumulated so far
// carry over, and every future Get/countRun lands in the registry's
// counters, so cache traffic shows up in its exports. Binding the same
// registry again is a no-op (so repeated exploration runs over a shared
// cache never double-count); binding a different registry migrates the
// current counts there.
func (c *StageCache) Bind(r *obs.Registry) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bound == r {
		return
	}
	c.bound = r
	for s := Stage(0); s < NumStages; s++ {
		h := r.Counter("cache." + s.String() + ".hits")
		h.Add(c.hits[s].Value())
		c.hits[s] = h
		m := r.Counter("cache." + s.String() + ".misses")
		m.Add(c.misses[s].Value())
		c.misses[s] = m
	}
	for _, ct := range []struct {
		name string
		c    **obs.Counter
	}{
		{"cache.store.hits", &c.storeHits},
		{"cache.store.misses", &c.storeMisses},
		{"cache.store.errors", &c.storeErrs},
	} {
		n := r.Counter(ct.name)
		n.Add((*ct.c).Value())
		*ct.c = n
	}
}

// Get looks up a stage's key, counting a hit or a miss. On a hit it
// returns the memoized artifact or error. A memory miss consults the
// attached BlobStore (if any) for the serializable stages before
// counting the miss; a store hit installs the entry in memory and counts
// as a hit, so StageStats reflect work avoided, wherever the artifact
// came from.
func (c *StageCache) Get(s Stage, k CacheKey) (val any, err error, ok bool) {
	c.mu.Lock()
	if e, ok := c.tables[s][k]; ok {
		c.hits[s].Inc()
		c.mu.Unlock()
		return e.val, e.err, true
	}
	bs := c.store
	c.mu.Unlock()
	if bs != nil && storeBacked[s] {
		if e, ok := c.storeGet(bs, s, k); ok {
			return e.val, e.err, true
		}
	}
	c.mu.Lock()
	c.misses[s].Inc()
	c.mu.Unlock()
	return nil, nil, false
}

// Put stores a completed stage artifact (or its deterministic failure)
// under a key, writing serializable stages through to the attached
// BlobStore. Concurrent Puts for the same key are benign: every stage is
// a pure function of the key, so every writer stores the same result.
func (c *StageCache) Put(s Stage, k CacheKey, val any, err error) {
	e := stageEntry{val: val, err: err}
	c.mu.Lock()
	c.tables[s][k] = e
	bs := c.store
	c.mu.Unlock()
	if bs != nil && storeBacked[s] {
		c.storePut(bs, s, k, e)
	}
}

// countRun records an uncached stage execution (StageParse) as a miss, so
// per-stage metrics cover the full pipeline.
func (c *StageCache) countRun(s Stage) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.misses[s].Inc()
}

// PerStage returns the hit and miss counts of every stage, indexed by
// Stage.
func (c *StageCache) PerStage() [NumStages]StageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [NumStages]StageStats
	for s := range out {
		out[s] = StageStats{Hits: c.hits[s].Value(), Misses: c.misses[s].Value()}
	}
	return out
}

// Stats returns the aggregate hit and miss counts across all stages.
func (c *StageCache) Stats() (hits, misses uint64) {
	ps := c.PerStage()
	for _, s := range ps {
		hits += s.Hits
		misses += s.Misses
	}
	return hits, misses
}

// StatsLine renders the per-stage counters compactly for logs, one
// "name hits/misses" pair per stage in pipeline order.
func (c *StageCache) StatsLine() string {
	ps := c.PerStage()
	parts := make([]string, 0, NumStages)
	for s := Stage(0); s < NumStages; s++ {
		parts = append(parts, fmt.Sprintf("%s %d/%d", s, ps[s].Hits, ps[s].Misses))
	}
	return strings.Join(parts, " ")
}

// Len returns the total number of memoized artifacts across all stages.
func (c *StageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, t := range c.tables {
		n += len(t)
	}
	return n
}

// StageLen returns the number of memoized artifacts of one stage.
func (c *StageCache) StageLen(s Stage) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables[s])
}
