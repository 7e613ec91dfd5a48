package gensim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/machines"
)

// TestGeneratedSourceDigest ties GeneratorVersion to the text the
// generator writes. The aot build cache is keyed by the version, so
// generated code that changes under an unchanged version would let a
// stale binary be reused.
func TestGeneratedSourceDigest(t *testing.T) {
	h := sha256.New()
	for _, m := range machines.Zoo() {
		src, err := Generate(m.Parse())
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		fmt.Fprintf(h, "%s\n%s", m.Name, src)
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != generatedDigest {
		t.Fatalf("generated code changed: bump GeneratorVersion and update the digest (digest %s, recorded %s)", got, generatedDigest)
	}
}
