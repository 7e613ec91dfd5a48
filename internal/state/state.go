// Package state emulates the processor state of a target architecture: one
// data structure per ISDL storage element, with every write routed through
// the state monitors (paper §3.2 parts 3–4, §3.3.1). The instruction-level
// simulator (internal/xsim) manipulates state through this package, which
// keeps it bit-true by construction: every stored value has exactly the
// declared storage width.
//
// Locations are addresses in 0..Depth-1. The simulator reduces an index
// value to an address with isdl.Storage.Addr where it computes the index;
// this package indexes directly.
package state

import (
	"fmt"
	"slices"

	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// ChangeEvent describes one modification of the processor state.
type ChangeEvent struct {
	Storage *isdl.Storage
	Index   int
	Old     bitvec.Value
	New     bitvec.Value
	// Cycle is the simulation cycle at which the change committed.
	Cycle uint64
}

func (e ChangeEvent) String() string {
	if e.Storage.Kind.Addressed() {
		return fmt.Sprintf("cycle %d: %s[%d]: %s -> %s", e.Cycle, e.Storage.Name, e.Index, e.Old, e.New)
	}
	return fmt.Sprintf("cycle %d: %s: %s -> %s", e.Cycle, e.Storage.Name, e.Old, e.New)
}

// ChangeFunc is a state-monitor hook.
type ChangeFunc func(ChangeEvent)

type watch struct {
	id    int
	index int // -1 = any location
	fn    ChangeFunc
}

// element is the storage for one ISDL storage definition.
type element struct {
	def  *isdl.Storage
	data []bitvec.Value
	// sp is the stack pointer for Stack storage: the number of live
	// entries (push writes data[sp], then increments).
	sp int
	// watches are the monitors on this storage alone, so a write to a
	// storage nobody watches builds no ChangeEvent.
	watches []watch
}

// State is the complete visible state of a target architecture.
type State struct {
	desc  *isdl.Description
	elems []element // by isdl.Storage.Index
	// Cycle is maintained by the scheduler and stamped onto change events.
	Cycle uint64

	nextID int
}

// New allocates zeroed state for a description.
func New(d *isdl.Description) *State {
	s := &State{desc: d, elems: make([]element, len(d.Storage))}
	for _, st := range d.Storage {
		s.elems[st.Index] = element{def: st, data: make([]bitvec.Value, st.Depth)}
	}
	s.Reset()
	return s
}

// Description returns the machine description this state belongs to.
func (s *State) Description() *isdl.Description { return s.desc }

// Reset zeroes every storage element and stack pointer without removing
// monitors.
func (s *State) Reset() {
	for i := range s.elems {
		e := &s.elems[i]
		for j := range e.data {
			e.data[j] = bitvec.New(e.def.Width)
		}
		e.sp = 0
	}
	s.Cycle = 0
}

func (s *State) elem(name string) *element {
	st, ok := s.desc.StorageByName[name]
	if !ok {
		panic(fmt.Sprintf("state: unknown storage %s", name))
	}
	return &s.elems[st.Index]
}

// Handle is a direct reference to one storage element, bypassing the
// name-to-element lookup on every access. The simulator resolves handles
// at construction; handles stay valid across Reset.
type Handle struct {
	s *State
	e *element
}

// Handle returns a direct handle on the named storage.
func (s *State) Handle(name string) (Handle, bool) {
	st, ok := s.desc.StorageByName[name]
	if !ok {
		return Handle{}, false
	}
	return Handle{s: s, e: &s.elems[st.Index]}, true
}

// Valid reports whether the handle is bound.
func (h Handle) Valid() bool { return h.e != nil }

// Get reads location idx through the handle.
func (h Handle) Get(idx int) bitvec.Value { return h.e.data[idx] }

// Set writes location idx through the handle, truncating or
// zero-extending v to the storage width, and fires the storage's monitors
// when the value changes.
func (h Handle) Set(idx int, v bitvec.Value) {
	e := h.e
	nv := v.Trunc(e.def.Width)
	if len(e.watches) == 0 {
		e.data[idx] = nv
		return
	}
	old := e.data[idx]
	e.data[idx] = nv
	if !old.Eq(nv) {
		ev := ChangeEvent{Storage: e.def, Index: idx, Old: old, New: nv, Cycle: h.s.Cycle}
		for _, w := range e.watches {
			if w.index < 0 || w.index == idx {
				w.fn(ev)
			}
		}
	}
}

// SetBits writes bits [hi:lo] of a location through the handle.
func (h Handle) SetBits(idx, hi, lo int, v bitvec.Value) {
	nv := h.Get(idx)
	for b := lo; b <= hi; b++ {
		nv = nv.WithBit(b, v.Bit(b-lo))
	}
	h.Set(idx, nv)
}

// Push pushes v onto a Stack storage. It reports an error on overflow.
func (h Handle) Push(v bitvec.Value) error {
	e := h.e
	if e.def.Kind != isdl.StStack {
		return fmt.Errorf("state: %s is not a stack", e.def.Name)
	}
	if e.sp >= len(e.data) {
		return fmt.Errorf("state: stack %s overflow (depth %d)", e.def.Name, len(e.data))
	}
	e.sp++
	h.Set(e.sp-1, v)
	return nil
}

// Pop pops the top of a Stack storage. It reports an error on underflow.
func (h Handle) Pop() (bitvec.Value, error) {
	e := h.e
	if e.def.Kind != isdl.StStack {
		return bitvec.Value{}, fmt.Errorf("state: %s is not a stack", e.def.Name)
	}
	if e.sp == 0 {
		return bitvec.Value{}, fmt.Errorf("state: stack %s underflow", e.def.Name)
	}
	e.sp--
	return e.data[e.sp], nil
}

// Get reads location idx of the named storage (idx 0 for unaddressed kinds).
func (s *State) Get(name string, idx int) bitvec.Value { return s.elem(name).data[idx] }

// Set writes location idx of the named storage (see Handle.Set).
func (s *State) Set(name string, idx int, v bitvec.Value) {
	Handle{s: s, e: s.elem(name)}.Set(idx, v)
}

// GetBits reads bits [hi:lo] of a storage location.
func (s *State) GetBits(name string, idx, hi, lo int) bitvec.Value {
	return s.Get(name, idx).Slice(hi, lo)
}

// SetBits writes bits [hi:lo] of a storage location, leaving the rest
// untouched.
func (s *State) SetBits(name string, idx, hi, lo int, v bitvec.Value) {
	Handle{s: s, e: s.elem(name)}.SetBits(idx, hi, lo, v)
}

// StackDepth returns the number of live entries of a Stack storage.
func (s *State) StackDepth(name string) int { return s.elem(name).sp }

// PC reads the program counter.
func (s *State) PC() bitvec.Value { return s.Get(s.desc.PC().Name, 0) }

// SetPC writes the program counter.
func (s *State) SetPC(v bitvec.Value) { s.Set(s.desc.PC().Name, 0, v) }

// Watch registers a monitor on the named storage; index -1 watches every
// location. It returns an id for Unwatch. Watching an unknown storage or an
// index outside 0..Depth-1 (other than -1) is an error, so batch scripts get
// a diagnostic instead of a monitor that can never fire.
func (s *State) Watch(storage string, index int, fn ChangeFunc) (int, error) {
	st, ok := s.desc.StorageByName[storage]
	if !ok {
		return 0, fmt.Errorf("state: unknown storage %s", storage)
	}
	if index < -1 || index >= st.Depth {
		return 0, fmt.Errorf("state: %s index %d outside 0..%d", storage, index, st.Depth-1)
	}
	s.nextID++
	e := &s.elems[st.Index]
	e.watches = append(e.watches, watch{id: s.nextID, index: index, fn: fn})
	return s.nextID, nil
}

// Unwatch removes a monitor; it reports whether the id existed.
func (s *State) Unwatch(id int) bool {
	for i := range s.elems {
		e := &s.elems[i]
		if j := slices.IndexFunc(e.watches, func(w watch) bool { return w.id == id }); j >= 0 {
			e.watches = slices.Delete(e.watches, j, j+1)
			return true
		}
	}
	return false
}

// LoadProgram writes words into the instruction memory starting at base,
// without firing monitors (program load is not an architectural state
// change).
func (s *State) LoadProgram(base int, words []bitvec.Value) error {
	im := s.desc.InstructionMemory()
	if base < 0 || base+len(words) > im.Depth {
		return fmt.Errorf("state: program of %d words at %d exceeds %s depth %d", len(words), base, im.Name, im.Depth)
	}
	s.elems[im.Index].load(base, words)
	return nil
}

// LoadData writes words into a data memory starting at base, without firing
// monitors.
func (s *State) LoadData(name string, base int, words []bitvec.Value) error {
	st, ok := s.desc.StorageByName[name]
	if !ok {
		return fmt.Errorf("state: unknown storage %s", name)
	}
	if base < 0 || base+len(words) > st.Depth {
		return fmt.Errorf("state: %d words at %d exceed %s depth %d", len(words), base, name, st.Depth)
	}
	s.elems[st.Index].load(base, words)
	return nil
}

// load writes words from base at the storage width.
func (e *element) load(base int, words []bitvec.Value) {
	for i, w := range words {
		e.data[base+i] = w.Trunc(e.def.Width)
	}
}

// Snapshot captures every storage element for later comparison (used by the
// lock-step co-simulation tests).
func (s *State) Snapshot() map[string][]bitvec.Value {
	out := make(map[string][]bitvec.Value, len(s.elems))
	for _, e := range s.elems {
		out[e.def.Name] = slices.Clone(e.data)
	}
	return out
}
