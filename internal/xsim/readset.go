package xsim

import (
	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
)

// This file computes, at load time, the set of storage locations an
// operation instance may read. The interlock of §3.3.3 compares pending
// latency-delayed write-backs against this set to decide how many stall
// cycles an instruction needs. Indices that are static for the instance
// (literals, token parameters) give per-location precision; anything
// runtime-dependent falls back to whole-storage granularity (index -1),
// which can only over-stall, never under-stall.

func readSet(sim *Simulator, dop *decode.Op) []loc {
	c := &readCollector{sim: sim}
	se := staticEnv{params: dop.Op.Params, args: dop.Args}
	c.stmts(dop.Op.Action, se)
	c.stmts(dop.Op.SideEffect, se)
	c.optionEffects(dop.Args)
	return c.dedup()
}

type staticEnv struct {
	params []*isdl.Param
	args   []decode.Arg
}

func (se staticEnv) arg(name string) (*decode.Arg, bool) {
	for i, p := range se.params {
		if p.Name == name {
			return &se.args[i], true
		}
	}
	return nil, false
}

type readCollector struct {
	sim  *Simulator
	locs []loc
}

func (c *readCollector) add(l loc) { c.locs = append(c.locs, l) }

func (c *readCollector) dedup() []loc {
	seen := map[loc]bool{}
	out := c.locs[:0]
	for _, l := range c.locs {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

func (c *readCollector) optionEffects(args []decode.Arg) {
	for i := range args {
		a := &args[i]
		if a.Option == nil {
			continue
		}
		sub := staticEnv{params: a.Option.Params, args: a.Sub}
		c.stmts(a.Option.SideEffect, sub)
		c.optionEffects(a.Sub)
	}
}

func (c *readCollector) stmts(stmts []isdl.Stmt, se staticEnv) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *isdl.Assign:
			c.expr(s.RHS, se)
			// Index computations on the LHS are reads too.
			c.lhsIndices(s.LHS, se)
		case *isdl.If:
			c.expr(s.Cond, se)
			c.stmts(s.Then, se)
			c.stmts(s.Else, se)
		case *isdl.ExprStmt:
			c.expr(s.X, se)
		}
	}
}

func (c *readCollector) lhsIndices(e isdl.Expr, se staticEnv) {
	switch e := e.(type) {
	case *isdl.Index:
		c.expr(e.Idx, se)
	case *isdl.SliceE:
		c.lhsIndices(e.X, se)
	case *isdl.Ref:
		if e.Param != nil && e.Param.NT != nil {
			if a, ok := se.arg(e.Name); ok && a.Option != nil {
				sub := staticEnv{params: a.Option.Params, args: a.Sub}
				c.lhsIndices(a.Option.Value, sub)
			}
		}
	}
}

func (c *readCollector) expr(e isdl.Expr, se staticEnv) {
	switch e := e.(type) {
	case *isdl.Lit:
	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			if e.Storage.Kind == isdl.StStack {
				c.add(loc{storage: e.Storage.Name, index: -1, hi: -1, lo: -1})
			} else {
				c.add(loc{storage: e.Storage.Name, index: 0, hi: -1, lo: -1})
			}
		case e.AliasTo != nil:
			c.add(loc{storage: e.AliasTo.Target, index: int(e.AliasTo.Index), hi: -1, lo: -1})
		case e.Param != nil && e.Param.NT != nil:
			if a, ok := se.arg(e.Name); ok && a.Option != nil {
				sub := staticEnv{params: a.Option.Params, args: a.Sub}
				c.expr(a.Option.Value, sub)
			}
		}
	case *isdl.Index:
		c.expr(e.Idx, se)
		if v, ok := staticEval(e.Idx, se); ok {
			idx := int(v.Uint64())
			if e.Storage.Depth > 0 {
				idx %= e.Storage.Depth
			}
			c.add(loc{storage: e.Storage.Name, index: idx, hi: -1, lo: -1})
		} else {
			c.add(loc{storage: e.Storage.Name, index: -1, hi: -1, lo: -1})
		}
	case *isdl.SliceE:
		c.expr(e.X, se)
	case *isdl.Unary:
		c.expr(e.X, se)
	case *isdl.Binary:
		c.expr(e.X, se)
		c.expr(e.Y, se)
	case *isdl.Call:
		if e.Fn == "pop" {
			if ref, ok := e.Args[0].(*isdl.Ref); ok {
				c.add(loc{storage: ref.Name, index: -1, hi: -1, lo: -1})
			}
			return
		}
		skipWidth := e.Fn == "sext" || e.Fn == "zext" || e.Fn == "trunc"
		for i, a := range e.Args {
			if skipWidth && i == 1 {
				continue
			}
			c.expr(a, se)
		}
	}
}

// staticEval evaluates an expression that depends only on literals and bound
// parameter values. ok is false when the expression touches state.
func staticEval(e isdl.Expr, se staticEnv) (bitvec.Value, bool) {
	switch e := e.(type) {
	case *isdl.Lit:
		return e.Val, true
	case *isdl.Ref:
		if e.Param != nil {
			a, ok := se.arg(e.Name)
			if !ok {
				return bitvec.Value{}, false
			}
			if e.Param.Token != nil {
				return a.Value, true
			}
			sub := staticEnv{params: a.Option.Params, args: a.Sub}
			return staticEval(a.Option.Value, sub)
		}
		return bitvec.Value{}, false
	case *isdl.SliceE:
		v, ok := staticEval(e.X, se)
		if !ok {
			return bitvec.Value{}, false
		}
		return v.Slice(e.Hi, e.Lo), true
	case *isdl.Unary:
		v, ok := staticEval(e.X, se)
		if !ok {
			return bitvec.Value{}, false
		}
		switch e.Op {
		case "-":
			return v.Neg(), true
		case "~":
			return v.Not(), true
		case "!":
			return boolVal(v.IsZero()), true
		}
	case *isdl.Binary:
		x, okx := staticEval(e.X, se)
		y, oky := staticEval(e.Y, se)
		if !okx || !oky {
			return bitvec.Value{}, false
		}
		return evalBinary(e.Op, x, y)
	case *isdl.Call:
		switch e.Fn {
		case "sext", "zext", "trunc":
			v, ok := staticEval(e.Args[0], se)
			if !ok {
				return bitvec.Value{}, false
			}
			switch e.Fn {
			case "sext":
				return v.SignExt(e.W), true
			case "zext":
				return v.ZeroExt(e.W), true
			default:
				return v.Trunc(e.W), true
			}
		}
	}
	return bitvec.Value{}, false
}
