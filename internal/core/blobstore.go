package core

// The StageCache's shared substrate. A BlobStore (internal/blob) turns
// the per-process memo table into a cross-process, cross-machine cache:
// synthesis figures and whole evaluations are written through to the
// store on Put, and a memory miss consults the store before declaring a
// real miss — so an architecture evaluated by any process against the
// same store is never evaluated again by anyone. The in-memory tables
// remain the first tier, the store is the second.

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/blob"
)

// BlobStore is the pluggable artifact substrate behind a StageCache:
// Get/Put/Has by SHA-256 key inside a stage namespace. Three
// implementations ship in internal/blob — in-memory (blob.Mem, the old
// single-process behavior), local-directory CAS (blob.Dir, safe for
// concurrent processes via atomic temp+fsync+rename writes) and an HTTP
// remote client (blob.HTTP, served by cmd/served) — selected by
// blob.Open("mem" | "dir:PATH" | "http://HOST").
type BlobStore = blob.Store

// persistVersion guards the blob format: it is part of every stage's
// namespace, so a store populated by an older toolchain is invisible to
// a newer one instead of misread. Bump it whenever a stored artifact's
// shape or a stage key's composition changes. Version 3: Synthesize keys
// by canonical text, the evaluation key covers the workload label, and
// only synthesize and combine are stored. Dropping Evaluation's
// always-null "Hardware" key did not bump it: encoding/json ignores that
// key in older blobs (TestDecodeCombineBlobWithHardwareKey).
const persistVersion = 3

// storeNS is a stage's blob namespace.
func storeNS(s Stage) string { return fmt.Sprintf("%s.v%d", s, persistVersion) }

// storedEntry is the body of one store blob: exactly one of the artifact
// fields, or Err for a memoized deterministic failure. The blob's address
// carries the key.
type storedEntry struct {
	Err        string         `json:"err,omitempty"`
	Synthesize *SynthArtifact `json:"synthesize,omitempty"`
	Combine    *Evaluation    `json:"combine,omitempty"`
}

// encodeStageBlob renders one memo entry as a store blob. The second
// result is false for entries with no serializable artifact.
func encodeStageBlob(e stageEntry) ([]byte, bool) {
	var se storedEntry
	if e.err != nil {
		se.Err = e.err.Error()
	} else {
		switch v := e.val.(type) {
		case SynthArtifact:
			se.Synthesize = &v
		case *Evaluation:
			if v == nil {
				return nil, false
			}
			se.Combine = v
		default:
			return nil, false
		}
	}
	data, err := json.Marshal(&se)
	return data, err == nil
}

// decodeStageBlob parses a store blob back into a memo entry of stage s.
func decodeStageBlob(s Stage, data []byte) (stageEntry, error) {
	var se storedEntry
	if err := json.Unmarshal(data, &se); err != nil {
		return stageEntry{}, fmt.Errorf("core: decode %s blob: %w", s, err)
	}
	switch {
	case se.Err != "":
		return stageEntry{err: errors.New(se.Err)}, nil
	case s == StageSynthesize && se.Synthesize != nil:
		return stageEntry{val: *se.Synthesize}, nil
	case s == StageCombine && se.Combine != nil:
		return stageEntry{val: se.Combine}, nil
	}
	return stageEntry{}, fmt.Errorf("core: %s blob carries no %s artifact", s, s)
}

// SetStore attaches the shared artifact store. Set it before evaluation
// starts; entries already memoized are not backfilled. A nil store
// detaches (memory-only, the default).
func (c *StageCache) SetStore(bs BlobStore) {
	c.mu.Lock()
	c.store = bs
	c.mu.Unlock()
}

// storeGet consults the attached store after a memory miss. A store hit
// is decoded, installed in the memory tier and counted as a stage hit;
// store trouble (network, decode) degrades to a miss — the stage
// recomputes, evaluation never fails on the store's account.
func (c *StageCache) storeGet(bs BlobStore, s Stage, k CacheKey) (stageEntry, bool) {
	data, err := bs.Get(storeNS(s), blob.Key(k))
	if err != nil {
		c.mu.Lock()
		if errors.Is(err, blob.ErrNotFound) {
			c.storeMisses.Inc()
		} else {
			c.storeErrs.Inc()
		}
		c.mu.Unlock()
		return stageEntry{}, false
	}
	e, err := decodeStageBlob(s, data)
	if err != nil {
		c.mu.Lock()
		c.storeErrs.Inc()
		c.mu.Unlock()
		return stageEntry{}, false
	}
	c.mu.Lock()
	c.tables[s][k] = e
	c.hits[s].Inc()
	c.storeHits.Inc()
	c.mu.Unlock()
	return e, true
}

// storePut writes one completed entry through to the store. Entries that
// do not serialize (nil values) and store errors are silently skipped —
// the memory tier already has the artifact.
func (c *StageCache) storePut(bs BlobStore, s Stage, k CacheKey, e stageEntry) {
	data, ok := encodeStageBlob(e)
	if !ok {
		return
	}
	if err := bs.Put(storeNS(s), blob.Key(k), data); err != nil {
		c.mu.Lock()
		c.storeErrs.Inc()
		c.mu.Unlock()
	}
}

// StoreStats returns the store-tier traffic: hits served from the
// attached BlobStore, store lookups that found nothing, and store or
// decode errors that degraded to recomputation.
func (c *StageCache) StoreStats() (hits, misses, errors uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.storeHits.Value(), c.storeMisses.Value(), c.storeErrs.Value()
}
