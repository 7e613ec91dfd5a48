// Package state emulates the processor state of a target architecture: one
// data structure per ISDL storage element, with every access routed through
// the state monitors (paper §3.2 parts 3–4, §3.3.1). The simulator, the
// assembler's loader and the co-simulation checker all manipulate state
// through this package, which keeps them bit-true by construction: every
// stored value has exactly the declared storage width.
package state

import (
	"fmt"

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
	id      int
	storage string
	index   int // -1 = any location
	fn      ChangeFunc
}

// element is the storage for one ISDL storage definition.
type element struct {
	def  *isdl.Storage
	data []bitvec.Value
	// sp is the stack pointer for Stack storage: the number of live
	// entries (push writes data[sp], then increments).
	sp int
}

// State is the complete visible state of a target architecture.
type State struct {
	desc  *isdl.Description
	elems map[string]*element
	// Cycle is maintained by the scheduler and stamped onto change events.
	Cycle uint64

	watches []watch
	nextID  int
	// quiet suppresses monitors during bulk loads.
	quiet bool
}

// New allocates zeroed state for a description.
func New(d *isdl.Description) *State {
	s := &State{desc: d, elems: map[string]*element{}}
	for _, st := range d.Storage {
		e := &element{def: st, data: make([]bitvec.Value, st.Depth)}
		for i := range e.data {
			e.data[i] = bitvec.New(st.Width)
		}
		s.elems[st.Name] = e
	}
	return s
}

// Description returns the machine description this state belongs to.
func (s *State) Description() *isdl.Description { return s.desc }

// Reset zeroes every storage element and stack pointer without removing
// monitors.
func (s *State) Reset() {
	for _, e := range s.elems {
		for i := range e.data {
			e.data[i] = bitvec.New(e.def.Width)
		}
		e.sp = 0
	}
	s.Cycle = 0
}

func (s *State) elem(name string) *element {
	e, ok := s.elems[name]
	if !ok {
		panic(fmt.Sprintf("state: unknown storage %s", name))
	}
	return e
}

// wrapIndex reduces an index to the storage depth; hardware address decoders
// ignore high bits, and the simulator mirrors that (§3: bit-true behaviour
// includes address truncation).
func wrapIndex(e *element, idx int) int {
	if idx < 0 {
		idx = -idx
	}
	return idx % len(e.data)
}

// Handle is a direct reference to one storage element, bypassing the
// name-to-element lookup on every access. The generated simulator resolves
// handles at load time; handles stay valid across Reset.
type Handle struct {
	s *State
	e *element
}

// Handle returns a direct handle on the named storage.
func (s *State) Handle(name string) (Handle, bool) {
	e, ok := s.elems[name]
	if !ok {
		return Handle{}, false
	}
	return Handle{s: s, e: e}, true
}

// Valid reports whether the handle is bound.
func (h Handle) Valid() bool { return h.e != nil }

// Get reads location idx through the handle.
func (h Handle) Get(idx int) bitvec.Value {
	return h.e.data[wrapIndex(h.e, idx)]
}

// Set writes location idx through the handle (same semantics as State.Set).
func (h Handle) Set(idx int, v bitvec.Value) {
	e := h.e
	idx = wrapIndex(e, idx)
	nv := v.Trunc(e.def.Width)
	old := e.data[idx]
	e.data[idx] = nv
	if !h.s.quiet && len(h.s.watches) > 0 && !old.Eq(nv) {
		h.s.fire(ChangeEvent{Storage: e.def, Index: idx, Old: old, New: nv, Cycle: h.s.Cycle})
	}
}

// SetBits writes bits [hi:lo] of a location through the handle.
func (h Handle) SetBits(idx, hi, lo int, v bitvec.Value) {
	old := h.Get(idx)
	nv := old
	for b := lo; b <= hi; b++ {
		nv = nv.WithBit(b, v.Bit(b-lo))
	}
	h.Set(idx, nv)
}

// Get reads location idx of the named storage (idx 0 for unaddressed kinds).
func (s *State) Get(name string, idx int) bitvec.Value {
	e := s.elem(name)
	return e.data[wrapIndex(e, idx)]
}

// Set writes location idx of the named storage, truncating or zero-extending
// v to the storage width, and fires any matching monitors.
func (s *State) Set(name string, idx int, v bitvec.Value) {
	e := s.elem(name)
	idx = wrapIndex(e, idx)
	nv := v.Trunc(e.def.Width)
	old := e.data[idx]
	if old.Eq(nv) {
		e.data[idx] = nv
		return
	}
	e.data[idx] = nv
	if !s.quiet {
		s.fire(ChangeEvent{Storage: e.def, Index: idx, Old: old, New: nv, Cycle: s.Cycle})
	}
}

// GetBits reads bits [hi:lo] of a storage location.
func (s *State) GetBits(name string, idx, hi, lo int) bitvec.Value {
	return s.Get(name, idx).Slice(hi, lo)
}

// SetBits writes bits [hi:lo] of a storage location, leaving the rest
// untouched.
func (s *State) SetBits(name string, idx, hi, lo int, v bitvec.Value) {
	old := s.Get(name, idx)
	nv := old
	for b := lo; b <= hi; b++ {
		nv = nv.WithBit(b, v.Bit(b-lo))
	}
	s.Set(name, idx, nv)
}

// Push pushes v onto a Stack storage. It reports an error on overflow.
func (s *State) Push(name string, v bitvec.Value) error {
	e := s.elem(name)
	if e.def.Kind != isdl.StStack {
		return fmt.Errorf("state: %s is not a stack", name)
	}
	if e.sp >= len(e.data) {
		return fmt.Errorf("state: stack %s overflow (depth %d)", name, len(e.data))
	}
	idx := e.sp
	e.sp++
	s.Set(name, idx, v)
	return nil
}

// Pop pops the top of a Stack storage. It reports an error on underflow.
func (s *State) Pop(name string) (bitvec.Value, error) {
	e := s.elem(name)
	if e.def.Kind != isdl.StStack {
		return bitvec.Value{}, fmt.Errorf("state: %s is not a stack", name)
	}
	if e.sp == 0 {
		return bitvec.Value{}, fmt.Errorf("state: stack %s underflow", name)
	}
	e.sp--
	return e.data[e.sp], nil
}

// StackDepth returns the number of live entries of a Stack storage.
func (s *State) StackDepth(name string) int { return s.elem(name).sp }

// PC reads the program counter.
func (s *State) PC() bitvec.Value { return s.Get(s.desc.PC().Name, 0) }

// SetPC writes the program counter.
func (s *State) SetPC(v bitvec.Value) { s.Set(s.desc.PC().Name, 0, v) }

// Watch registers a monitor on the named storage; index -1 watches every
// location. It returns an id for Unwatch. Watching an unknown storage is an
// error so batch scripts get a diagnostic instead of silence.
func (s *State) Watch(storage string, index int, fn ChangeFunc) (int, error) {
	if _, ok := s.elems[storage]; !ok {
		return 0, fmt.Errorf("state: unknown storage %s", storage)
	}
	s.nextID++
	s.watches = append(s.watches, watch{id: s.nextID, storage: storage, index: index, fn: fn})
	return s.nextID, nil
}

// Unwatch removes a monitor; it reports whether the id existed.
func (s *State) Unwatch(id int) bool {
	for i, w := range s.watches {
		if w.id == id {
			s.watches = append(s.watches[:i], s.watches[i+1:]...)
			return true
		}
	}
	return false
}

func (s *State) fire(ev ChangeEvent) {
	for _, w := range s.watches {
		if w.storage == ev.Storage.Name && (w.index < 0 || w.index == ev.Index) {
			w.fn(ev)
		}
	}
}

// LoadProgram writes words into the instruction memory starting at base,
// without firing monitors (program load is not an architectural state
// change).
func (s *State) LoadProgram(base int, words []bitvec.Value) error {
	im := s.desc.InstructionMemory()
	if base < 0 || base+len(words) > im.Depth {
		return fmt.Errorf("state: program of %d words at %d exceeds %s depth %d", len(words), base, im.Name, im.Depth)
	}
	s.quiet = true
	defer func() { s.quiet = false }()
	for i, w := range words {
		s.Set(im.Name, base+i, w)
	}
	return nil
}

// LoadData writes words into a data memory starting at base, without firing
// monitors.
func (s *State) LoadData(name string, base int, words []bitvec.Value) error {
	e, ok := s.elems[name]
	if !ok {
		return fmt.Errorf("state: unknown storage %s", name)
	}
	if base < 0 || base+len(words) > len(e.data) {
		return fmt.Errorf("state: %d words at %d exceed %s depth %d", len(words), base, name, len(e.data))
	}
	s.quiet = true
	defer func() { s.quiet = false }()
	for i, w := range words {
		s.Set(name, base+i, w)
	}
	return nil
}

// Snapshot captures every storage element for later comparison (used by the
// lock-step co-simulation tests).
func (s *State) Snapshot() map[string][]bitvec.Value {
	out := make(map[string][]bitvec.Value, len(s.elems))
	for name, e := range s.elems {
		cp := make([]bitvec.Value, len(e.data))
		copy(cp, e.data)
		out[name] = cp
	}
	return out
}
