// Package blob is the shared content-addressed artifact substrate: a
// Store holds immutable blobs under a SHA-256 key inside a flat namespace
// (one namespace per pipeline stage or artifact family), so any artifact
// produced by one process — a whole evaluation, a synthesized cost model
// — is available to every other process, on this machine or another.
// Three implementations ship:
//
//   - Mem: in-process map, the single-process behavior the StageCache
//     always had.
//   - Dir: one file per blob under a root directory, written atomically
//     (temp+fsync+rename via internal/atomicfile) so concurrent
//     processes sharing the directory never observe a partial blob.
//   - HTTP: a thin remote client speaking GET/PUT/HEAD against the
//     /v1/blobs/{ns}/{key} tree that Handler serves (cmd/served mounts
//     it), so explorers on different machines share every artifact.
//
// Keys are produced by the callers (internal/core stage keys hash the
// exact inputs a stage reads), so the store itself is a dumb, durable
// map: a blob's bytes are fully determined by its key, writes of the same
// key are idempotent, and entries never expire.
package blob

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
)

// Key addresses one blob inside a namespace: a SHA-256 digest of the
// inputs that determine the blob's content.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk and on-wire form).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey decodes a 64-character hex key.
func ParseKey(s string) (Key, error) {
	var k Key
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(k) {
		return k, fmt.Errorf("blob: bad key %q", s)
	}
	copy(k[:], raw)
	return k, nil
}

// KeyOf hashes the parts into a Key. Parts are length-prefixed, so no
// two distinct part sequences collide by concatenation.
func KeyOf(parts ...string) Key {
	h := sha256.New()
	var n [8]byte
	for _, p := range parts {
		for i, l := 0, len(p); i < 8; i++ {
			n[i] = byte(l >> (8 * i))
		}
		h.Write(n[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// ErrNotFound reports a key with no blob in its namespace.
var ErrNotFound = errors.New("blob: not found")

// Store is a durable, concurrency-safe map from (namespace, key) to an
// immutable byte blob. Put is idempotent — the same key always carries
// the same bytes, so concurrent writers race benignly — and Get returns
// ErrNotFound (possibly wrapped) for absent keys. Any other error is
// environmental (I/O, network) and callers should degrade to
// recomputing, never fail.
type Store interface {
	// Get returns the blob stored under ns/key, or an error wrapping
	// ErrNotFound.
	Get(ns string, key Key) ([]byte, error)
	// Put stores the blob under ns/key, durably for Dir (atomic write)
	// and remote stores.
	Put(ns string, key Key, data []byte) error
	// Has reports whether ns/key holds a blob, without fetching it.
	Has(ns string, key Key) (bool, error)
}

// checkNS validates a namespace: non-empty, and restricted to a charset
// that is safe as a single path segment on every store (no separators,
// no dot-dot, nothing needing escaping).
func checkNS(ns string) error {
	if ns == "" {
		return errors.New("blob: empty namespace")
	}
	if strings.HasPrefix(ns, ".") {
		return fmt.Errorf("blob: bad namespace %q", ns)
	}
	for _, r := range ns {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '-' || r == '_':
		default:
			return fmt.Errorf("blob: bad namespace %q", ns)
		}
	}
	return nil
}

// Open builds a store from a spec string (the CLIs' -store flag):
//
//	mem            in-process only (testing)
//	dir:PATH       shared directory CAS, created if absent
//	http://HOST    remote store served by cmd/served (or any Handler)
//	https://HOST
func Open(spec string) (Store, error) {
	switch {
	case spec == "mem":
		return NewMem(), nil
	case strings.HasPrefix(spec, "dir:"):
		return NewDir(strings.TrimPrefix(spec, "dir:"))
	case strings.HasPrefix(spec, "http://"), strings.HasPrefix(spec, "https://"):
		return NewHTTP(spec), nil
	}
	return nil, fmt.Errorf("blob: unknown store spec %q (want mem, dir:PATH or http(s)://HOST)", spec)
}
