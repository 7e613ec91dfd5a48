package xsim

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
	"repro/internal/state"
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
// isdl.Storage.Index, and no name is looked up while an operation executes.
// Runtime faults (stack overflow/underflow, malformed RTL) are rare, so the
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

// loc is a write destination: a bit range of one storage location. h is the
// resolved handle for writes from the evaluator (zero in read-set entries,
// which are only compared field-wise).
type loc struct {
	storage string
	index   int
	hi, lo  int // -1,-1 = whole element
	h       state.Handle
}

func (l loc) String() string {
	if l.hi >= 0 {
		return fmt.Sprintf("%s[%d][%d:%d]", l.storage, l.index, l.hi, l.lo)
	}
	return fmt.Sprintf("%s[%d]", l.storage, l.index)
}

// write is one collected state update.
type write struct {
	loc loc
	val bitvec.Value
}

// pushOp is a deferred stack push (applied in the write half of a phase).
type pushOp struct {
	stack string
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
				ph.pushes = append(ph.pushes, pushOp{stack: call.Args[0].(*isdl.Ref).Name, val: ev.eval(call.Args[1])})
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
		if err := sim.st.Push(ph.pushes[i].stack, ph.pushes[i].val); err != nil {
			sim.fault("%s", err.Error())
		}
	}
}

func (sim *Simulator) applyWrite(w *write) {
	if w.loc.hi >= 0 {
		w.loc.h.SetBits(w.loc.index, w.loc.hi, w.loc.lo, w.val)
	} else {
		w.loc.h.Set(w.loc.index, w.val)
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
			return loc{storage: e.Storage.Name, index: 0, hi: -1, lo: -1, h: ev.sim.stH[e.Storage.Index]}
		case e.AliasTo != nil:
			a := e.AliasTo
			l := loc{storage: a.Target, index: int(a.Index), hi: -1, lo: -1, h: ev.sim.aliasH[a]}
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
		return loc{storage: e.Storage.Name, index: int(idx.Uint64()), hi: -1, lo: -1, h: ev.sim.stH[e.Storage.Index]}
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
			v := ev.sim.aliasH[a].Get(int(a.Index))
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
		return ev.sim.stH[e.Storage.Index].Get(int(idx.Uint64()))

	case *isdl.SliceE:
		return ev.eval(e.X).Slice(e.Hi, e.Lo)

	case *isdl.Unary:
		v := ev.eval(e.X)
		switch e.Op {
		case "-":
			return v.Neg()
		case "~":
			return v.Not()
		case "!":
			return boolVal(v.IsZero())
		}

	case *isdl.Binary:
		x := ev.eval(e.X)
		// Short-circuit logical operators.
		switch e.Op {
		case "&&":
			return boolVal(!x.IsZero() && !ev.eval(e.Y).IsZero())
		case "||":
			return boolVal(!x.IsZero() || !ev.eval(e.Y).IsZero())
		}
		v, ok := evalBinary(e.Op, x, ev.eval(e.Y))
		if !ok {
			ev.sim.fault("unknown operator %q", e.Op)
		}
		return v

	case *isdl.Call:
		return ev.evalCall(e)
	}
	ev.sim.fault("cannot evaluate %s", e)
	return bitvec.Value{}
}

func boolVal(b bool) bitvec.Value {
	if b {
		return bitvec.FromUint64(1, 1)
	}
	return bitvec.New(1)
}

// evalBinary applies a non-short-circuit binary operator; ok is false for
// an unknown operator.
func evalBinary(op string, x, y bitvec.Value) (v bitvec.Value, ok bool) {
	switch op {
	case "+":
		return x.Add(y), true
	case "-":
		return x.Sub(y), true
	case "*":
		return x.Mul(y), true
	case "/":
		return x.DivU(y), true
	case "%":
		return x.ModU(y), true
	case "&":
		return x.And(y), true
	case "|":
		return x.Or(y), true
	case "^":
		return x.Xor(y), true
	case "<<":
		return x.Shl(int(y.Uint64())), true
	case ">>":
		return x.ShrL(int(y.Uint64())), true
	case "==":
		return boolVal(x.Eq(y)), true
	case "!=":
		return boolVal(!x.Eq(y)), true
	case "<":
		return boolVal(x.CmpU(y) < 0), true
	case "<=":
		return boolVal(x.CmpU(y) <= 0), true
	case ">":
		return boolVal(x.CmpU(y) > 0), true
	case ">=":
		return boolVal(x.CmpU(y) >= 0), true
	}
	return bitvec.Value{}, false
}

func (ev *env) evalCall(e *isdl.Call) bitvec.Value {
	// push/pop touch the stack; the rest are pure.
	switch e.Fn {
	case "pop":
		v, err := ev.sim.st.Pop(e.Args[0].(*isdl.Ref).Name)
		if err != nil {
			ev.sim.fault("%s", err.Error())
		}
		return v
	case "push":
		ev.sim.fault("push used as a value")
	}

	var argBuf [4]bitvec.Value
	var args []bitvec.Value
	if len(e.Args) <= len(argBuf) {
		args = argBuf[:len(e.Args)]
	} else {
		args = make([]bitvec.Value, len(e.Args))
	}
	for i, a := range e.Args {
		// Width arguments of sext/zext/trunc are unsized literals carrying
		// the target width; skip evaluating them.
		if i == 1 && (e.Fn == "sext" || e.Fn == "zext" || e.Fn == "trunc") {
			continue
		}
		args[i] = ev.eval(a)
	}
	switch e.Fn {
	case "sext":
		return args[0].SignExt(e.W)
	case "zext":
		return args[0].ZeroExt(e.W)
	case "trunc":
		return args[0].Trunc(e.W)
	case "carry":
		_, c := args[0].AddCarry(args[1])
		return boolVal(c)
	case "borrow":
		_, b := args[0].SubBorrow(args[1])
		return boolVal(b)
	case "addov":
		s := args[0].Add(args[1])
		return boolVal(args[0].Sign() == args[1].Sign() && s.Sign() != args[0].Sign())
	case "subov":
		s := args[0].Sub(args[1])
		return boolVal(args[0].Sign() != args[1].Sign() && s.Sign() != args[0].Sign())
	case "slt":
		return boolVal(args[0].CmpS(args[1]) < 0)
	case "sle":
		return boolVal(args[0].CmpS(args[1]) <= 0)
	case "sgt":
		return boolVal(args[0].CmpS(args[1]) > 0)
	case "sge":
		return boolVal(args[0].CmpS(args[1]) >= 0)
	case "asr":
		return args[0].ShrA(int(args[1].Uint64()))
	case "concat":
		v := args[0]
		for _, a := range args[1:] {
			v = v.Concat(a)
		}
		return v
	}
	ev.sim.fault("unknown builtin %s", e.Fn)
	return bitvec.Value{}
}
