package verilog

import (
	"fmt"

	"repro/internal/bitvec"
)

// Sim is an event-driven, two-value simulator for one module.
//
// NewSim elaborates the module once; it is the one place that resolves
// names and widths, since Parse builds syntax only. Every scalar net and
// port becomes a slot in a value table, and every memory a slot in a memory
// table. Every expression, lvalue and statement becomes a closure over
// resolved slots, widths, slice bounds and memory depths. Each operator is
// chosen at elaboration, and each subexpression whose operands are all
// constants is evaluated there once. Anything the module gets wrong (an
// undeclared net, a memory without an index, a slice out of range, an
// unknown operator, a combinational loop) is an error from NewSim, not a
// late failure in Tick.
//
// Elaboration changes the cost of an event, not which events happen. The
// schedule is the classic event-driven HDL execution model whose per-cycle
// cost Table 1 compares against the instruction-level simulator.
// Continuous assignments are processes with sensitivity lists. A change on
// a net schedules every process in its fan-out, in assignment order, onto
// a FIFO queue that holds each process at most once, and evaluation
// repeats until the combinational network reaches a fixpoint. Every
// process evaluation and every executed procedural assignment is one event.
//
// The Module is only read, and only by NewSim; all simulation state lives
// in the Sim, so any number of Sims may share one Module concurrently.
type Sim struct {
	m *Module

	vals []bitvec.Value   // scalar nets and ports, by slot
	mems [][]bitvec.Value // memories, by slot
	// netSlot and memSlot resolve names for the string API (Get, GetMem,
	// SetMem, SetInput); the compiled model never consults them.
	netSlot map[string]int
	memSlot map[string]int

	// assigns[i] evaluates continuous assignment i and writes its net.
	assigns []func()
	always  []block
	// netFanout and memFanout list, by slot, the continuous assignments
	// that read a net or a memory, in assignment order.
	netFanout [][]int
	memFanout [][]int

	// ring is the FIFO work queue: n scheduled assignments from head,
	// wrapping. queued marks its members, so it never holds more than
	// len(assigns).
	ring    []int
	head, n int
	queued  []bool

	// nus and mus collect one Tick's non-blocking updates. They are kept
	// between ticks, so a Tick allocates no buffer.
	nus []netUpd
	mus []memUpd

	events uint64
}

// block is one compiled always block.
type block struct {
	clock string
	run   func()
}

// netUpd is a pending non-blocking write to a net. A whole-net write has
// a zero-width keep; a part-select write replaces bits [lo, lo+width(val))
// and keeps the bits of the net that keep marks.
type netUpd struct {
	slot int
	lo   int
	keep bitvec.Value
	val  bitvec.Value
}

// memUpd is a pending non-blocking write of one memory word.
type memUpd struct {
	slot, idx int
	val       bitvec.Value
}

// node is a compiled expression: its evaluator, the width of every value
// the evaluator returns, and whether it is a constant.
type node struct {
	eval    func() bitvec.Value
	width   int
	isConst bool
}

// reads collects the slots an expression reads, for the fan-out table.
type reads struct{ nets, mems []int }

// NewSim elaborates a module. Every net starts at zero (two-value
// simulation), and the combinational network is settled once.
func NewSim(m *Module) (*Sim, error) {
	s := &Sim{
		m:       m,
		netSlot: map[string]int{},
		memSlot: map[string]int{},
		ring:    make([]int, len(m.Assigns)),
		queued:  make([]bool, len(m.Assigns)),
	}
	// A name declared twice (a port redeclared as a reg) is one net, at
	// the width of its first declaration.
	for _, p := range m.Ports {
		if err := s.declare(Net{Name: p.Name, Width: p.Width}); err != nil {
			return nil, err
		}
	}
	for _, n := range m.Nets {
		if err := s.declare(n); err != nil {
			return nil, err
		}
	}
	s.netFanout = make([][]int, len(s.vals))
	s.memFanout = make([][]int, len(s.mems))

	driven := map[string]bool{}
	targets := make([]string, len(m.Assigns)) // the net each assignment drives
	for i := range m.Assigns {
		a := &m.Assigns[i]
		switch l := a.LHS.(type) {
		case *NetL:
			if driven[l.Name] {
				return nil, fmt.Errorf("verilog: net %s has multiple whole-net drivers", l.Name)
			}
			driven[l.Name] = true
			targets[i] = l.Name
		case *SliceL:
			targets[i] = l.Name
		case *IndexL:
			return nil, fmt.Errorf("verilog: continuous assignment to a memory")
		}
		var r reads
		rhs, err := s.compile(a.RHS, &r)
		if err != nil {
			return nil, err
		}
		write, w, err := s.lvalue(a.LHS, false)
		if err != nil {
			return nil, err
		}
		v := resize(rhs, w)
		s.assigns = append(s.assigns, func() { write(v()) })
		for _, slot := range r.nets {
			s.netFanout[slot] = addFanout(s.netFanout[slot], i)
		}
		for _, slot := range r.mems {
			s.memFanout[slot] = addFanout(s.memFanout[slot], i)
		}
	}
	if net := s.loop(targets); net != "" {
		return nil, fmt.Errorf("verilog: combinational loop through net %s", net)
	}
	for _, al := range m.Always {
		run, err := s.compileStmts(al.Stmts)
		if err != nil {
			return nil, err
		}
		s.always = append(s.always, block{clock: al.Clock, run: run})
	}

	// Initial settle so outputs reflect the zero state.
	for i := range s.assigns {
		s.schedule(i)
	}
	if err := s.settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// loop returns a net on a cycle of continuous assignments, or "" if there
// is none. An assignment leads to every assignment that reads the net it
// drives (targets[i]). settle would spend its whole event budget on such a
// cycle before reporting it, so NewSim rejects it.
func (s *Sim) loop(targets []string) string {
	const (
		unseen = iota
		open   // on the current path
		closed // no cycle through it
	)
	mark := make([]byte, len(targets))
	var visit func(i int) string
	visit = func(i int) string {
		mark[i] = open
		for _, j := range s.netFanout[s.netSlot[targets[i]]] {
			if mark[j] == open {
				return targets[i]
			}
			if mark[j] == unseen {
				if net := visit(j); net != "" {
					return net
				}
			}
		}
		mark[i] = closed
		return ""
	}
	for i := range targets {
		if mark[i] == unseen {
			if net := visit(i); net != "" {
				return net
			}
		}
	}
	return ""
}

// declare gives a net or memory declaration its slot. A name declared
// again keeps its first slot, which must be of the same kind.
func (s *Sim) declare(n Net) error {
	_, isNet := s.netSlot[n.Name]
	_, isMem := s.memSlot[n.Name]
	switch {
	case n.Width < 1 || n.Width > bitvec.MaxWidth || n.Depth < 0:
		return fmt.Errorf("verilog: %s declared %d bits wide and %d deep", n.Name, n.Width, n.Depth)
	case isNet && n.Depth > 0 || isMem && n.Depth == 0:
		return fmt.Errorf("verilog: %s declared both as a net and as a memory", n.Name)
	case n.Depth == 0 && !isNet:
		s.netSlot[n.Name] = len(s.vals)
		s.vals = append(s.vals, bitvec.New(n.Width))
	case n.Depth > 0 && !isMem:
		mem := make([]bitvec.Value, n.Depth)
		for i := range mem {
			mem[i] = bitvec.New(n.Width)
		}
		s.memSlot[n.Name] = len(s.mems)
		s.mems = append(s.mems, mem)
	}
	return nil
}

// net resolves the name of a whole net to its slot.
func (s *Sim) net(name string) (int, error) {
	if slot, ok := s.netSlot[name]; ok {
		return slot, nil
	}
	if _, ok := s.memSlot[name]; ok {
		return 0, fmt.Errorf("verilog: memory %s used without an index", name)
	}
	return 0, fmt.Errorf("verilog: no net %s", name)
}

// addFanout appends assignment i to a fan-out list unless it already ends
// with it (an assignment that reads a net twice).
func addFanout(list []int, i int) []int {
	if n := len(list); n > 0 && list[n-1] == i {
		return list
	}
	return append(list, i)
}

// Events returns the number of process evaluations so far — the measure of
// event-driven simulation work.
func (s *Sim) Events() uint64 { return s.events }

// Get reads a scalar net or port.
func (s *Sim) Get(name string) (bitvec.Value, error) {
	slot, ok := s.netSlot[name]
	if !ok {
		return bitvec.Value{}, fmt.Errorf("verilog: no net %s", name)
	}
	return s.vals[slot], nil
}

// GetMem reads one memory word.
func (s *Sim) GetMem(name string, idx int) (bitvec.Value, error) {
	slot, ok := s.memSlot[name]
	if !ok {
		return bitvec.Value{}, fmt.Errorf("verilog: no memory %s", name)
	}
	mem := s.mems[slot]
	if idx < 0 || idx >= len(mem) {
		return bitvec.Value{}, fmt.Errorf("verilog: %s[%d] out of range", name, idx)
	}
	return mem[idx], nil
}

// SetMem initializes one memory word (testbench use: program load).
func (s *Sim) SetMem(name string, idx int, v bitvec.Value) error {
	slot, ok := s.memSlot[name]
	if !ok {
		return fmt.Errorf("verilog: no memory %s", name)
	}
	mem := s.mems[slot]
	if idx < 0 || idx >= len(mem) {
		return fmt.Errorf("verilog: %s[%d] out of range", name, idx)
	}
	mem[idx] = v.Trunc(mem[idx].Width())
	s.wake(s.memFanout[slot])
	return s.settle()
}

// SetInput drives an input port and settles the combinational network.
func (s *Sim) SetInput(name string, v bitvec.Value) error {
	for _, p := range s.m.Ports {
		if p.Name == name {
			if p.Dir != In {
				return fmt.Errorf("verilog: %s is not an input", name)
			}
			slot := s.netSlot[name]
			s.update(slot, v.Trunc(s.vals[slot].Width()))
			return s.settle()
		}
	}
	return fmt.Errorf("verilog: no port %s", name)
}

// Tick performs one clock cycle on the named clock: all always blocks
// evaluate against pre-edge state, their non-blocking updates apply
// together, and the combinational network settles.
func (s *Sim) Tick(clock string) error {
	for _, b := range s.always {
		if b.clock == clock {
			b.run()
		}
	}
	for _, u := range s.mus {
		s.writeMem(u.slot, u.idx, u.val)
	}
	for _, u := range s.nus {
		v := u.val
		if u.keep.Width() > 0 {
			v = splice(s.vals[u.slot], u.keep, u.lo, v)
		}
		s.update(u.slot, v)
	}
	s.mus, s.nus = s.mus[:0], s.nus[:0]
	return s.settle()
}

// update writes a net value and schedules its fan-out on change.
func (s *Sim) update(slot int, v bitvec.Value) {
	if s.vals[slot].Eq(v) {
		return
	}
	s.vals[slot] = v
	s.wake(s.netFanout[slot])
}

// writeMem writes a memory word and schedules its fan-out on change.
func (s *Sim) writeMem(slot, idx int, v bitvec.Value) {
	mem := s.mems[slot]
	if mem[idx].Eq(v) {
		return
	}
	mem[idx] = v
	s.wake(s.memFanout[slot])
}

func (s *Sim) wake(fanout []int) {
	for _, i := range fanout {
		s.schedule(i)
	}
}

func (s *Sim) schedule(i int) {
	if s.queued[i] {
		return
	}
	s.queued[i] = true
	t := s.head + s.n
	if t >= len(s.ring) {
		t -= len(s.ring)
	}
	s.ring[t] = i
	s.n++
}

// settle evaluates scheduled continuous assignments until the network is
// quiescent.
func (s *Sim) settle() error {
	const maxEvents = 1 << 22
	n := 0
	for s.n > 0 {
		i := s.ring[s.head]
		if s.head++; s.head == len(s.ring) {
			s.head = 0
		}
		s.n--
		s.queued[i] = false
		s.assigns[i]()
		s.events++
		if n++; n > maxEvents {
			return fmt.Errorf("verilog: combinational network did not settle (loop?)")
		}
	}
	return nil
}

// splice returns old with the bits that keep clears replaced by v shifted
// to lo.
func splice(old, keep bitvec.Value, lo int, v bitvec.Value) bitvec.Value {
	return old.And(keep).Or(v.Trunc(old.Width()).Shl(lo))
}

// compileStmts compiles a statement list into one closure.
func (s *Sim) compileStmts(stmts []Stmt) (func(), error) {
	fs := make([]func(), len(stmts))
	for i, st := range stmts {
		f, err := s.compileStmt(st)
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return func() {
		for _, f := range fs {
			f()
		}
	}, nil
}

func (s *Sim) compileStmt(st Stmt) (func(), error) {
	var lhs LValue
	var rhs Expr
	deferred := false
	switch st := st.(type) {
	case *NBAssign:
		lhs, rhs, deferred = st.LHS, st.RHS, true
	case *BAssign:
		lhs, rhs = st.LHS, st.RHS
	case *If:
		c, err := s.compile(st.Cond, nil)
		if err != nil {
			return nil, err
		}
		then, err := s.compileStmts(st.Then)
		if err != nil {
			return nil, err
		}
		els, err := s.compileStmts(st.Else)
		if err != nil {
			return nil, err
		}
		cond := c.eval
		return func() {
			if !cond().IsZero() {
				then()
			} else {
				els()
			}
		}, nil
	default:
		return nil, fmt.Errorf("verilog: unknown statement %T", st)
	}
	r, err := s.compile(rhs, nil)
	if err != nil {
		return nil, err
	}
	write, w, err := s.lvalue(lhs, deferred)
	if err != nil {
		return nil, err
	}
	v := resize(r, w)
	return func() {
		x := v()
		s.events++
		write(x)
	}, nil
}

// lvalue compiles an assignment destination into a writer of values of
// the returned width. A deferred writer queues a non-blocking update for
// the end of the Tick; an immediate one writes at once and schedules the
// fan-out of a change.
func (s *Sim) lvalue(l LValue, deferred bool) (func(bitvec.Value), int, error) {
	switch l := l.(type) {
	case *NetL:
		slot, err := s.net(l.Name)
		if err != nil {
			return nil, 0, err
		}
		if deferred {
			return func(v bitvec.Value) { s.nus = append(s.nus, netUpd{slot: slot, val: v}) }, s.vals[slot].Width(), nil
		}
		return func(v bitvec.Value) { s.update(slot, v) }, s.vals[slot].Width(), nil
	case *SliceL:
		if _, ok := s.memSlot[l.Name]; ok {
			return nil, 0, fmt.Errorf("verilog: part-select of memory %s", l.Name)
		}
		slot, err := s.net(l.Name)
		if err != nil {
			return nil, 0, err
		}
		w := s.vals[slot].Width()
		if l.Lo < 0 || l.Hi < l.Lo || l.Hi >= w {
			return nil, 0, fmt.Errorf("verilog: slice [%d:%d] out of range of %s", l.Hi, l.Lo, l.Name)
		}
		lo, k := l.Lo, l.Hi-l.Lo+1
		keep := bitvec.New(k).Not().Trunc(w).Shl(lo).Not()
		if deferred {
			return func(v bitvec.Value) { s.nus = append(s.nus, netUpd{slot: slot, lo: lo, keep: keep, val: v}) }, k, nil
		}
		return func(v bitvec.Value) { s.update(slot, splice(s.vals[slot], keep, lo, v)) }, k, nil
	case *IndexL:
		slot, ok := s.memSlot[l.Name]
		if !ok {
			return nil, 0, fmt.Errorf("verilog: %s is not a memory", l.Name)
		}
		idx, err := s.compile(l.Idx, nil)
		if err != nil {
			return nil, 0, err
		}
		ix, depth, w := idx.eval, uint64(len(s.mems[slot])), s.mems[slot][0].Width()
		if deferred {
			return func(v bitvec.Value) {
				s.mus = append(s.mus, memUpd{slot: slot, idx: int(ix().Uint64() % depth), val: v})
			}, w, nil
		}
		return func(v bitvec.Value) { s.writeMem(slot, int(ix().Uint64()%depth), v) }, w, nil
	}
	return nil, 0, fmt.Errorf("verilog: unknown assignment target %T", l)
}

// constant is a node that always yields v.
func constant(v bitvec.Value) node {
	return node{eval: func() bitvec.Value { return v }, width: v.Width(), isConst: true}
}

// fold evaluates n once, at elaboration, when all its operands are
// constants.
func fold(n node, operands ...node) node {
	for _, o := range operands {
		if !o.isConst {
			return n
		}
	}
	return constant(n.eval())
}

// resize returns n's evaluator adjusted to width w (zero-extended or
// truncated), or n's own evaluator when it already has that width.
func resize(n node, w int) func() bitvec.Value {
	if n.width == w {
		return n.eval
	}
	if n.isConst {
		return constant(n.eval().Trunc(w)).eval
	}
	f := n.eval
	return func() bitvec.Value { return f().Trunc(w) }
}

var (
	vtrue  = bitvec.FromUint64(1, 1)
	vfalse = bitvec.New(1)
)

func vbool(b bool) bitvec.Value {
	if b {
		return vtrue
	}
	return vfalse
}

// compile resolves an expression into a node, recording in r (when
// non-nil) the nets and memories it reads. It computes every width, by
// the rules HGEN's emitter writes to: a net reads at its declared width
// and a memory at its word width; a slice [hi:lo] is hi−lo+1 bits; ~ and -
// keep the operand's width; !, the reduction |, comparisons, && and || are
// one bit; shifts keep the left operand's width; every other binary
// operator and the ternary take the wider operand, zero-extending the
// narrower; a concatenation is the sum of its parts.
func (s *Sim) compile(e Expr, r *reads) (node, error) {
	switch e := e.(type) {
	case *Const:
		return constant(e.Val), nil
	case *Ref:
		slot, err := s.net(e.Name)
		if err != nil {
			return node{}, err
		}
		if r != nil {
			r.nets = append(r.nets, slot)
		}
		vals := s.vals
		return node{eval: func() bitvec.Value { return vals[slot] }, width: vals[slot].Width()}, nil
	case *Index:
		slot, ok := s.memSlot[e.Name]
		if !ok {
			return node{}, fmt.Errorf("verilog: no memory %s", e.Name)
		}
		if r != nil {
			r.mems = append(r.mems, slot)
		}
		idx, err := s.compile(e.Idx, r)
		if err != nil {
			return node{}, err
		}
		mem, ix := s.mems[slot], idx.eval
		depth := uint64(len(mem))
		return node{eval: func() bitvec.Value { return mem[ix().Uint64()%depth] }, width: mem[0].Width()}, nil
	case *Slice:
		// The parser reads mem[3] as a bit-select. Of a memory it reads a
		// word: compile a word read of its own, and leave the module,
		// which Sims share, as it is.
		if ref, ok := e.X.(*Ref); ok {
			if _, isMem := s.memSlot[ref.Name]; isMem {
				if e.Hi != e.Lo {
					return node{}, fmt.Errorf("verilog: part-select of memory %s", ref.Name)
				}
				return s.compile(&Index{Name: ref.Name, Idx: &Const{Val: bitvec.FromUint64(32, uint64(e.Lo))}}, r)
			}
		}
		x, err := s.compile(e.X, r)
		if err != nil {
			return node{}, err
		}
		if e.Lo < 0 || e.Hi < e.Lo || e.Hi >= x.width {
			return node{}, fmt.Errorf("verilog: slice [%d:%d] out of range of %s, %d bits wide", e.Hi, e.Lo, emitExpr(e.X), x.width)
		}
		f, hi, lo := x.eval, e.Hi, e.Lo
		return fold(node{eval: func() bitvec.Value { return f().Slice(hi, lo) }, width: hi - lo + 1}, x), nil
	case *Unary:
		x, err := s.compile(e.X, r)
		if err != nil {
			return node{}, err
		}
		f := x.eval
		var n node
		switch e.Op {
		case "~":
			n = node{eval: func() bitvec.Value { return f().Not() }, width: x.width}
		case "-":
			n = node{eval: func() bitvec.Value { return f().Neg() }, width: x.width}
		case "!":
			n = node{eval: func() bitvec.Value { return vbool(f().IsZero()) }, width: 1}
		case "|":
			n = node{eval: func() bitvec.Value { return vbool(!f().IsZero()) }, width: 1}
		default:
			return node{}, fmt.Errorf("verilog: unknown unary operator %q", e.Op)
		}
		return fold(n, x), nil
	case *Binary:
		x, err := s.compile(e.X, r)
		if err != nil {
			return node{}, err
		}
		y, err := s.compile(e.Y, r)
		if err != nil {
			return node{}, err
		}
		n, err := binary(e.Op, x, y)
		if err != nil {
			return node{}, err
		}
		return fold(n, x, y), nil
	case *Ternary:
		c, err := s.compile(e.C, r)
		if err != nil {
			return node{}, err
		}
		a, err := s.compile(e.A, r)
		if err != nil {
			return node{}, err
		}
		b, err := s.compile(e.B, r)
		if err != nil {
			return node{}, err
		}
		w := max(a.width, b.width)
		cf, af, bf := c.eval, resize(a, w), resize(b, w)
		n := node{eval: func() bitvec.Value {
			if cf().IsZero() {
				return bf()
			}
			return af()
		}, width: w}
		return fold(n, c, a, b), nil
	case *ConcatE:
		if len(e.Parts) == 0 {
			return node{}, fmt.Errorf("verilog: empty concatenation")
		}
		parts := make([]node, len(e.Parts))
		width := 0
		for i, p := range e.Parts {
			n, err := s.compile(p, r)
			if err != nil {
				return node{}, err
			}
			parts[i] = n
			width += n.width
		}
		if width > bitvec.MaxWidth {
			return node{}, fmt.Errorf("verilog: concatenation %d bits wide", width)
		}
		n := node{eval: func() bitvec.Value {
			v := parts[0].eval()
			for _, p := range parts[1:] {
				v = v.Concat(p.eval())
			}
			return v
		}, width: width}
		return fold(n, parts...), nil
	}
	return node{}, fmt.Errorf("verilog: cannot evaluate expression %T", e)
}

// binary picks a binary operator's evaluator. Shifts keep the left
// operand's width and comparisons and logical operators yield one bit;
// every other operator zero-extends the narrower operand.
func binary(op string, x, y node) (node, error) {
	xf, yf := x.eval, y.eval
	switch op {
	case "&&":
		return node{eval: func() bitvec.Value { return vbool(!xf().IsZero() && !yf().IsZero()) }, width: 1}, nil
	case "||":
		return node{eval: func() bitvec.Value { return vbool(!xf().IsZero() || !yf().IsZero()) }, width: 1}, nil
	case "<<":
		return node{eval: func() bitvec.Value { return xf().Shl(yf().Amount()) }, width: x.width}, nil
	case ">>":
		return node{eval: func() bitvec.Value { return xf().ShrL(yf().Amount()) }, width: x.width}, nil
	}
	w := max(x.width, y.width)
	xf, yf = resize(x, w), resize(y, w)
	var f func() bitvec.Value
	switch op {
	case "+":
		f = func() bitvec.Value { return xf().Add(yf()) }
	case "-":
		f = func() bitvec.Value { return xf().Sub(yf()) }
	case "*":
		f = func() bitvec.Value { return xf().Mul(yf()) }
	case "/":
		f = func() bitvec.Value { return xf().DivU(yf()) }
	case "%":
		f = func() bitvec.Value { return xf().ModU(yf()) }
	case "&":
		f = func() bitvec.Value { return xf().And(yf()) }
	case "|":
		f = func() bitvec.Value { return xf().Or(yf()) }
	case "^":
		f = func() bitvec.Value { return xf().Xor(yf()) }
	case "==":
		return node{eval: func() bitvec.Value { return vbool(xf().Eq(yf())) }, width: 1}, nil
	case "!=":
		return node{eval: func() bitvec.Value { return vbool(!xf().Eq(yf())) }, width: 1}, nil
	case "<":
		return node{eval: func() bitvec.Value { return vbool(xf().CmpU(yf()) < 0) }, width: 1}, nil
	case "<=":
		return node{eval: func() bitvec.Value { return vbool(xf().CmpU(yf()) <= 0) }, width: 1}, nil
	case ">":
		return node{eval: func() bitvec.Value { return vbool(xf().CmpU(yf()) > 0) }, width: 1}, nil
	case ">=":
		return node{eval: func() bitvec.Value { return vbool(xf().CmpU(yf()) >= 0) }, width: 1}, nil
	default:
		return node{}, fmt.Errorf("verilog: unknown binary operator %q", op)
	}
	return node{eval: f, width: w}, nil
}
