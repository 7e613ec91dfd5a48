// Package gensim is the ahead-of-time compiled simulator backend: the
// analogue of the paper's GENSIM proper, which emits architecture-specific C
// and compiles it natively (§3.3) — the decisive speed lever of §6.2. Given
// an isdl.Description it emits a specialized, self-contained Go main package:
//
//   - a flat decode switch generated from the operation signatures (mask /
//     compare over the raw instruction image, parameter bit-gathers inlined),
//   - a fused two-phase cycle step with every storage access compiled to a
//     direct slice operation on uint64 state — no state.Handle indirection
//     and no bitvec.Value boxing for word-sized storages,
//   - the latency/commit queues and the §3.3.3 interlock specialized to the
//     description's fields and timing parameters.
//
// The source is built once per description with `go build` into a cache
// directory keyed by the ISDL fingerprint and driven over a versioned
// JSON-lines stdin/stdout protocol (docs/GENSIM.md). The generated simulator is
// bit-identical to the interpreter — final state, Stats, stall counts, fault
// messages — which the differential gauntlet in this package enforces.
// Descriptions outside the specializable subset (an RTL expression or
// storage wider than 64 bits) and hosts without a Go toolchain degrade
// gracefully: xsim.NewEngine falls back to the interpreter.
package gensim

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/isdl"
)

// GeneratorVersion tags the emitted code shape; it is part of the build
// fingerprint, so bumping it invalidates every cached binary. A change to
// the generated text must bump it: TestGeneratedSourceDigest fails until
// the version is bumped and generatedDigest updated.
const GeneratorVersion = 5

// generatedDigest is the SHA-256 of Generate's output for the zoo
// machines at GeneratorVersion (TestGeneratedSourceDigest).
const generatedDigest = "59bb0a51cc6b566a220507cbf5c443e19a08c995f97077146f11583f4501348b"

// ProtoVersion is the stdin/stdout protocol version; the handshake rejects
// a mismatched child binary.
const ProtoVersion = 2

// ErrUnavailable reports that the aot backend cannot run on this host: the
// Go toolchain is missing or REPRO_GENSIM_DISABLE is set. Callers fall back
// to the interpreter.
var ErrUnavailable = errors.New("gensim: aot backend unavailable (no Go toolchain or REPRO_GENSIM_DISABLE set)")

// UnsupportedError reports a description outside the specializable subset
// (e.g. an RTL expression wider than 64 bits). It is a deterministic
// property of the description, so pipeline caches may memoize it; callers
// fall back to the interpreter.
type UnsupportedError struct {
	Reason string
}

func (e *UnsupportedError) Error() string { return "gensim: unsupported description: " + e.Reason }

// IsUnsupported reports whether err is an UnsupportedError.
func IsUnsupported(err error) bool {
	var ue *UnsupportedError
	return errors.As(err, &ue)
}

// Fingerprint keys the build cache: the canonical ISDL text plus the
// generator and protocol versions, so a description change, a generator
// change, or a protocol change each produce a fresh binary.
func Fingerprint(d *isdl.Description) string {
	h := sha256.New()
	fmt.Fprintf(h, "gensim g%d p%d\n", GeneratorVersion, ProtoVersion)
	h.Write([]byte(isdl.Format(d)))
	return hex.EncodeToString(h.Sum(nil))
}
