package xsim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
)

// This file interprets the RTL of decoded operations against processor
// state. It implements the two-phase evaluation of §3.3.3: every statement
// of a phase reads the pre-phase state ("all RTL statements read their input
// values before any RTL statement writes its results"), writes are collected
// into temporary storage, and the caller commits them afterwards — possibly
// delayed by the operation's Latency.
//
// Everything static is resolved at decode time, the way generated
// simulators bind operands when they disassemble the program: arguments are
// bound by parameter position, storage handles are indexed by
// isdl.Storage.Index (sem resolved every storage, alias and stack
// reference), and no name is looked up while an operation executes. An
// index value becomes an address through isdl.Storage.Addr where it is
// computed, so write destinations, read sets and pending write-backs all
// hold addresses.
// Operators evaluate through the operator-table entry (internal/isdl/ops.go)
// each expression node points at. Runtime faults (stack overflow/underflow, malformed RTL) are rare, so the
// evaluator reports them by panicking with *RuntimeError; Step recovers.

// env binds the parameters of one operation or option instance. Environments
// are built once per decoded instruction (load-time disassembly) and reused
// every execution; sub-environments for non-terminal arguments are prebuilt
// recursively.
type env struct {
	sim    *Simulator
	params []*isdl.Param
	args   []decode.Arg
	// subs holds, by parameter position, the sub-environment of each
	// non-terminal argument (nil for tokens); option is the decoded option
	// this environment belongs to (nil at operation level).
	subs   []*env
	option *isdl.Option
}

func newEnv(sim *Simulator, params []*isdl.Param, args []decode.Arg) *env {
	e := &env{sim: sim, params: params, args: args}
	for i := range params {
		if args[i].Option == nil {
			continue
		}
		if e.subs == nil {
			e.subs = make([]*env, len(params))
		}
		sub := newEnv(sim, args[i].Option.Params, args[i].Sub)
		sub.option = args[i].Option
		e.subs[i] = sub
	}
	return e
}

// param returns the position of p among the environment's parameters.
func (ev *env) param(p *isdl.Param) int {
	for i, q := range ev.params {
		if q == p {
			return i
		}
	}
	ev.sim.fault("unresolved reference %s", p.Name)
	return -1
}

// loc is a write destination or a read-set entry: a bit range of one
// storage element. addr is an address under isdl.Storage.Addr; -1 in a
// read set stands for every element.
type loc struct {
	st     *isdl.Storage
	addr   int
	hi, lo int // -1,-1 = whole element
}

func (l loc) String() string {
	if l.hi >= 0 {
		return fmt.Sprintf("%s[%d][%d:%d]", l.st.Name, l.addr, l.hi, l.lo)
	}
	return fmt.Sprintf("%s[%d]", l.st.Name, l.addr)
}

// write is one collected state update.
type write struct {
	loc loc
	val bitvec.Value
}

// pushOp is a deferred stack push (applied in the write half of a phase).
type pushOp struct {
	stack *isdl.Storage
	val   bitvec.Value
}

// phase collects the effects of evaluating one phase's statements.
type phase struct {
	writes []write
	pushes []pushOp
}

// RuntimeError is a simulation fault (stack overflow, malformed RTL); it
// halts the simulator.
type RuntimeError struct {
	PC  int
	Msg string
}

func (e *RuntimeError) Error() string { return fmt.Sprintf("runtime error at %#x: %s", e.PC, e.Msg) }

// fault raises a *RuntimeError at the current instruction.
func (sim *Simulator) fault(format string, args ...interface{}) {
	panic(&RuntimeError{PC: sim.currentPC, Msg: fmt.Sprintf(format, args...)})
}

// execStmts evaluates statements into ph (reads against current state).
func (ev *env) execStmts(stmts []isdl.Stmt, ph *phase) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *isdl.Assign:
			v := ev.eval(s.RHS)
			ph.writes = append(ph.writes, write{loc: ev.evalLoc(s.LHS), val: v})
		case *isdl.If:
			if !ev.eval(s.Cond).IsZero() {
				ev.execStmts(s.Then, ph)
			} else {
				ev.execStmts(s.Else, ph)
			}
		case *isdl.ExprStmt:
			call := s.X.(*isdl.Call)
			switch call.Fn {
			case "push":
				ph.pushes = append(ph.pushes, pushOp{stack: call.Args[0].(*isdl.Ref).Storage, val: ev.eval(call.Args[1])})
			case "pop":
				ev.eval(call)
			}
		}
	}
}

// commit applies the collected writes of a phase. Statements later in the
// phase override earlier ones on the same bits, matching the sequential
// write-back of the generated simulators.
func (sim *Simulator) commit(ph *phase) {
	for i := range ph.writes {
		sim.applyWrite(&ph.writes[i])
	}
	for i := range ph.pushes {
		if err := sim.stH[ph.pushes[i].stack.Index].Push(ph.pushes[i].val); err != nil {
			sim.fault("%s", err.Error())
		}
	}
}

func (sim *Simulator) applyWrite(w *write) {
	h := sim.stH[w.loc.st.Index]
	if w.loc.hi >= 0 {
		h.SetBits(w.loc.addr, w.loc.hi, w.loc.lo, w.val)
	} else {
		h.Set(w.loc.addr, w.val)
	}
	sim.stats.Writes++
}

// evalLoc resolves an lvalue expression to a concrete write destination,
// evaluating any index expressions against pre-phase state.
func (ev *env) evalLoc(e isdl.Expr) loc {
	switch e := e.(type) {
	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			return loc{st: e.Storage, hi: -1, lo: -1}
		case e.AliasTo != nil:
			a := e.AliasTo
			l := loc{st: a.Storage, addr: int(a.Index), hi: -1, lo: -1}
			if a.Sliced {
				l.hi, l.lo = a.Hi, a.Lo
			}
			return l
		case e.Param != nil && e.Param.NT != nil:
			sub := ev.subs[ev.param(e.Param)]
			return sub.evalLoc(sub.option.Value)
		}
	case *isdl.Index:
		idx := ev.eval(e.Idx)
		return loc{st: e.Storage, addr: e.Storage.Addr(idx.Uint64()), hi: -1, lo: -1}
	case *isdl.SliceE:
		base := ev.evalLoc(e.X)
		if base.hi >= 0 {
			// Slice of a slice: offsets compose.
			base.hi, base.lo = base.lo+e.Hi, base.lo+e.Lo
		} else {
			base.hi, base.lo = e.Hi, e.Lo
		}
		return base
	}
	ev.sim.fault("%s is not assignable", e)
	return loc{}
}

// eval computes the value of an RTL expression against current state.
func (ev *env) eval(e isdl.Expr) bitvec.Value {
	switch e := e.(type) {
	case *isdl.Lit:
		return e.Val

	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			ev.sim.stats.Reads++
			return ev.sim.stH[e.Storage.Index].Get(0)
		case e.AliasTo != nil:
			a := e.AliasTo
			ev.sim.stats.Reads++
			v := ev.sim.stH[a.Storage.Index].Get(int(a.Index))
			if a.Sliced {
				v = v.Slice(a.Hi, a.Lo)
			}
			return v
		case e.Param != nil:
			i := ev.param(e.Param)
			if e.Param.Token != nil {
				return ev.args[i].Value
			}
			sub := ev.subs[i]
			return sub.eval(sub.option.Value)
		}
		ev.sim.fault("unresolved reference %s", e.Name)

	case *isdl.Index:
		idx := ev.eval(e.Idx)
		ev.sim.stats.Reads++
		return ev.sim.stH[e.Storage.Index].Get(e.Storage.Addr(idx.Uint64()))

	case *isdl.SliceE:
		return ev.eval(e.X).Slice(e.Hi, e.Lo)

	case *isdl.Unary:
		return e.Def.Eval(ev.eval(e.X), bitvec.Value{}, e.W)

	case *isdl.Binary:
		x := ev.eval(e.X)
		var y bitvec.Value
		if e.Def.Decides == nil || !e.Def.Decides(x) {
			y = ev.eval(e.Y)
		}
		return e.Def.Eval(x, y, e.W)

	case *isdl.Call:
		if e.Def == nil {
			// pop: push has no value, so the semantic pass admits it
			// only as a statement.
			v, err := ev.sim.stH[e.Args[0].(*isdl.Ref).Storage.Index].Pop()
			if err != nil {
				ev.sim.fault("%s", err.Error())
			}
			return v
		}
		ops := e.Operands()
		v := ev.eval(ops[0])
		if len(ops) == 1 {
			return e.Def.Eval(v, bitvec.Value{}, e.W)
		}
		for _, a := range ops[1:] {
			v = e.Def.Eval(v, ev.eval(a), e.W)
		}
		return v
	}
	ev.sim.fault("cannot evaluate %s", e)
	return bitvec.Value{}
}
