package isdl

import "slices"

// This file derives the read set of an operation instance: the storage
// locations its action, its side effect and its chosen options' side
// effects may read. The interlock of §3.3.3 stalls an instruction while a
// pending latency-delayed write-back targets one of them. The interpreter
// (internal/xsim) and the simulator generator (internal/gensim) both take
// their read sets from Reads, so the two backends stall alike by
// construction.
//
// An index known at decode time gives per-element precision; any other
// index reads the whole storage (element -1), which can only over-stall,
// never under-stall.

// ReadScope binds the parameters of one operation or option instance.
type ReadScope interface {
	// Option returns the option chosen for the i-th parameter, a
	// non-terminal, and the scope that binds the option's own parameters.
	Option(i int) (*Option, ReadScope)
}

// Read is one storage location an operation instance may read.
type Read struct {
	Storage *Storage
	// Elem is the element read when Index is nil: 0 for a register, an
	// alias's index, or -1 for any element (stacks, pop, runtime indices).
	Elem int
	// Index, when non-nil, is an element index known at decode time: an
	// expression over the parameters Scope binds. Storage.Addr of its
	// value is the element read.
	Index Expr
	Scope ReadScope
}

// Reads calls visit for each read of the operation instance sc binds: the
// action's, then the side effect's, then the chosen options' side effects,
// depth first in parameter order. A statement's right-hand side comes
// before the index reads of its left-hand side, and an index's own reads
// come before the element it selects. The same location may be visited
// more than once.
func (op *Operation) Reads(sc ReadScope, visit func(Read)) {
	b := binding{op.Params, sc}
	b.stmts(op.Action, visit)
	b.stmts(op.SideEffect, visit)
	b.optionEffects(visit)
}

// binding pairs a scope with the parameter list it binds.
type binding struct {
	params []*Param
	sc     ReadScope
}

// option returns the option chosen for the i-th parameter, a
// non-terminal, and the binding of the option's own parameters.
func (b binding) option(i int) (*Option, binding) {
	opt, sc := b.sc.Option(i)
	return opt, binding{opt.Params, sc}
}

// chosen returns the option chosen for non-terminal parameter p, which the
// semantic pass resolved in this scope, and its binding.
func (b binding) chosen(p *Param) (*Option, binding) {
	return b.option(slices.Index(b.params, p))
}

func (b binding) optionEffects(visit func(Read)) {
	for i, p := range b.params {
		if p.NT != nil {
			opt, sub := b.option(i)
			sub.stmts(opt.SideEffect, visit)
			sub.optionEffects(visit)
		}
	}
}

func (b binding) stmts(list []Stmt, visit func(Read)) {
	for _, s := range list {
		switch s := s.(type) {
		case *Assign:
			b.expr(s.RHS, visit)
			b.lhs(s.LHS, visit)
		case *If:
			b.expr(s.Cond, visit)
			b.stmts(s.Then, visit)
			b.stmts(s.Else, visit)
		case *ExprStmt:
			b.expr(s.X, visit)
		}
	}
}

// lhs visits the reads of a write destination: only its index
// computations.
func (b binding) lhs(e Expr, visit func(Read)) {
	switch e := e.(type) {
	case *Index:
		b.expr(e.Idx, visit)
	case *SliceE:
		b.lhs(e.X, visit)
	case *Ref:
		if e.Param != nil && e.Param.NT != nil {
			opt, sub := b.chosen(e.Param)
			sub.lhs(opt.Value, visit)
		}
	}
}

func (b binding) expr(e Expr, visit func(Read)) {
	switch e := e.(type) {
	case *Ref:
		switch {
		case e.Storage != nil:
			elem := 0
			if e.Storage.Kind == StStack {
				elem = -1
			}
			visit(Read{Storage: e.Storage, Elem: elem})
		case e.AliasTo != nil:
			visit(Read{Storage: e.AliasTo.Storage, Elem: int(e.AliasTo.Index)})
		case e.Param != nil && e.Param.NT != nil:
			opt, sub := b.chosen(e.Param)
			sub.expr(opt.Value, visit)
		}
	case *Index:
		b.expr(e.Idx, visit)
		r := Read{Storage: e.Storage, Elem: -1}
		if b.decodeTime(e.Idx) {
			r.Index, r.Scope = e.Idx, b.sc
		}
		visit(r)
	case *SliceE:
		b.expr(e.X, visit)
	case *Unary:
		b.expr(e.X, visit)
	case *Binary:
		b.expr(e.X, visit)
		b.expr(e.Y, visit)
	case *Call:
		if e.Fn == "pop" {
			visit(Read{Storage: e.Args[0].(*Ref).Storage, Elem: -1})
			return
		}
		for _, a := range e.Operands() {
			b.expr(a, visit)
		}
	}
}

// decodeTime reports whether e is known once the instruction is decoded:
// built only from literals, token parameters, non-terminal values that are
// themselves known, slices, unary operators, binary operators other than
// && and ||, and sext/zext/trunc of these.
func (b binding) decodeTime(e Expr) bool {
	switch e := e.(type) {
	case *Lit:
		return true
	case *Ref:
		switch {
		case e.Param == nil:
			return false
		case e.Param.Token != nil:
			return true
		}
		opt, sub := b.chosen(e.Param)
		return sub.decodeTime(opt.Value)
	case *SliceE:
		return b.decodeTime(e.X)
	case *Unary:
		return b.decodeTime(e.X)
	case *Binary:
		return e.Def.Width != Logical && b.decodeTime(e.X) && b.decodeTime(e.Y)
	case *Call:
		return e.Def != nil && e.Def.Width == WidthLiteral && b.decodeTime(e.Args[0])
	}
	return false
}
