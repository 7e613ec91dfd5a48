package core

// Memoization. One hill-climbing iteration regenerates candidates a
// previous iteration (or restart, or process) already scored, and the
// paper's single-description design makes every generated tool a pure
// function of its inputs. Only two artifacts are ever reused, so only
// two stages are memoized: the whole evaluation, keyed by canonical ISDL
// text (isdl.Format output, so formatting differences never split
// equivalent architectures), kernel and workload label; and the hardware
// model, keyed by canonical ISDL alone, because it does not depend on the
// application (a kernel-only change reuses it). Parse, compile, assemble
// and simulate run every time; their runs are counted as misses, so the
// per-stage metrics still cover the whole pipeline.

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
	// StageParse is ISDL parsing + canonicalization. Not memoized (the
	// artifact would be a mutable AST); every run counts as a miss.
	StageParse Stage = iota
	// StageCompile is the retargetable compiler: (description, kernel) →
	// assembly text. Not memoized; every run counts as a miss.
	StageCompile
	// StageAssemble is the assembler: (description, assembly) →
	// *asm.Program. Not memoized; every run counts as a miss.
	StageAssemble
	// StageSimulate is the instruction-level simulator: (description,
	// program) → xsim.Stats. Not memoized; every run counts as a miss.
	StageSimulate
	// StageSynthesize is the hardware model: canonical ISDL →
	// SynthArtifact. Memoized.
	StageSynthesize
	// StageCombine folds simulation and synthesis into the final
	// *Evaluation. Memoized as the whole evaluation, keyed by (canonical
	// ISDL, kernel, workload label).
	StageCombine
	// NumStages is the stage count (for iteration).
	NumStages
)

var stageNames = [NumStages]string{"parse", "compile", "assemble", "simulate", "synthesize", "combine"}

// String returns the stage's short name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// memoized marks the stages whose artifacts a StageCache keeps, in memory
// and in an attached store. Every other stage only has its runs counted.
var memoized = [NumStages]bool{StageSynthesize: true, StageCombine: true}

// CacheKey identifies one memoized artifact. Build it with StageKey.
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

// StageCache is a thread-safe memo table for pipeline stage artifacts,
// plus the hit/miss counters of every stage. Entries never expire: the
// evaluation configuration is fixed (core.go), so a stage's inputs fully
// determine its deterministic result.
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
// synthesis figures and whole evaluations are written through on Put and
// consulted on a memory miss, so processes sharing a store share them
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
// attached BlobStore (if any) for the memoized stages before
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
	if bs != nil && memoized[s] {
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
// under a key, writing memoized stages through to the attached
// BlobStore. Concurrent Puts for the same key are benign: every stage is
// a pure function of the key, so every writer stores the same result.
func (c *StageCache) Put(s Stage, k CacheKey, val any, err error) {
	e := stageEntry{val: val, err: err}
	c.mu.Lock()
	c.tables[s][k] = e
	bs := c.store
	c.mu.Unlock()
	if bs != nil && memoized[s] {
		c.storePut(bs, s, k, e)
	}
}

// countRun records a run of an unmemoized stage as a miss, so per-stage
// metrics cover the full pipeline.
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

// StageLen returns the number of memoized artifacts of one stage.
func (c *StageCache) StageLen(s Stage) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.tables[s])
}
