package blob

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// Dir is the local-directory CAS: one file per blob at
// root/ns/kk/keyhex (kk = the first two hex digits, a fan-out so no
// directory grows unbounded). Writes go through internal/atomicfile's
// temp+fsync+rename, so any number of processes can share the root
// concurrently — a reader either sees a complete blob or none, and
// same-key writers race benignly because equal keys carry equal bytes.
type Dir struct {
	root string
}

// NewDir opens (creating if needed) a directory store rooted at root.
func NewDir(root string) (*Dir, error) {
	if root == "" {
		return nil, errors.New("blob: empty dir store path")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("blob: dir store: %w", err)
	}
	return &Dir{root: root}, nil
}

// path maps ns/key to the blob's file path.
func (s *Dir) path(ns string, key Key) string {
	hex := key.String()
	return filepath.Join(s.root, ns, hex[:2], hex)
}

// Get implements Store.
func (s *Dir) Get(ns string, key Key) ([]byte, error) {
	if err := checkNS(ns); err != nil {
		return nil, err
	}
	data, err := os.ReadFile(s.path(ns, key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("blob: %s/%s: %w", ns, key, ErrNotFound)
	}
	if err != nil {
		return nil, fmt.Errorf("blob: dir get: %w", err)
	}
	return data, nil
}

// Put implements Store.
func (s *Dir) Put(ns string, key Key, data []byte) error {
	if err := checkNS(ns); err != nil {
		return err
	}
	p := s.path(ns, key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("blob: dir put: %w", err)
	}
	if err := atomicfile.WriteFile(p, data, 0o644); err != nil {
		return fmt.Errorf("blob: dir put: %w", err)
	}
	return nil
}
