package blob

import "sync"

// Mem is the in-process Store: a mutex-guarded map. It is the
// single-process behavior the stage cache always had, and the test
// double for everything layered on Store.
type Mem struct {
	mu sync.RWMutex
	m  map[string]map[Key][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem { return &Mem{m: map[string]map[Key][]byte{}} }

// Get implements Store.
func (s *Mem) Get(ns string, key Key) ([]byte, error) {
	if err := checkNS(ns); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, ok := s.m[ns][key]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// Put implements Store.
func (s *Mem) Put(ns string, key Key, data []byte) error {
	if err := checkNS(ns); err != nil {
		return err
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.m[ns]
	if t == nil {
		t = map[Key][]byte{}
		s.m[ns] = t
	}
	t[key] = cp
	return nil
}

// Len returns the total number of blobs across namespaces (tests).
func (s *Mem) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, t := range s.m {
		n += len(t)
	}
	return n
}
