package hgen

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/verilog"
)

// expr translates a (width-checked) ISDL RTL expression into the Verilog
// subset, emitting temporaries where the subset needs simple nets (slices of
// compound values, carry chains, signed comparisons, arithmetic shifts).
func (e *venv) expr(x isdl.Expr) (verilog.Expr, error) {
	g := e.g
	switch x := x.(type) {
	case *isdl.Lit:
		return constE(x.Val), nil

	case *isdl.Ref:
		switch {
		case x.Storage != nil:
			return &verilog.Ref{Name: "s_" + x.Storage.Name, W: x.Storage.Width}, nil
		case x.AliasTo != nil:
			a := x.AliasTo
			st := a.Storage
			var base verilog.Expr
			if a.Indexed {
				base = &verilog.Index{Name: "s_" + a.Target, Idx: constE(bitvec.FromUint64(max(1, addrBitsFor(st.Depth)), a.Index)), W: st.Width}
			} else {
				base = &verilog.Ref{Name: "s_" + a.Target, W: st.Width}
			}
			if a.Sliced {
				return &verilog.Slice{X: base, Hi: a.Hi, Lo: a.Lo}, nil
			}
			return base, nil
		case x.Param != nil:
			b := e.binds[x.Param.Name]
			if x.Param.Token != nil {
				return &verilog.Ref{Name: b.wire, W: x.Param.Token.RetWidth}, nil
			}
			// Non-terminal value: multiplex the options.
			nt := x.Param.NT
			var out verilog.Expr
			for i := len(nt.Options) - 1; i >= 0; i-- {
				opt := nt.Options[i]
				sub := e.sub(b, opt)
				v, err := sub.expr(opt.Value)
				if err != nil {
					return nil, err
				}
				if out == nil {
					out = v
					continue
				}
				sel := &verilog.Ref{Name: fmt.Sprintf("%s_o%d_sel", b.wire, opt.Index), W: 1}
				out = &verilog.Ternary{C: sel, A: v, B: out, W: nt.ValueWidth}
			}
			return out, nil
		}
		return nil, fmt.Errorf("unresolved reference %s", x.Name)

	case *isdl.Index:
		idx, err := e.expr(x.Idx)
		if err != nil {
			return nil, err
		}
		return &verilog.Index{Name: "s_" + x.Storage.Name, Idx: g.ensureRef(idx), W: x.Storage.Width}, nil

	case *isdl.SliceE:
		inner, err := e.expr(x.X)
		if err != nil {
			return nil, err
		}
		return &verilog.Slice{X: g.ensureRef(inner), Hi: x.Hi, Lo: x.Lo}, nil

	case *isdl.Unary:
		v, err := e.expr(x.X)
		if err != nil {
			return nil, err
		}
		return &verilog.Unary{Op: x.Op, X: v, W: x.Width()}, nil

	case *isdl.Binary:
		xx, err := e.expr(x.X)
		if err != nil {
			return nil, err
		}
		yy, err := e.expr(x.Y)
		if err != nil {
			return nil, err
		}
		return &verilog.Binary{Op: x.Op, X: xx, Y: yy, W: x.Width()}, nil

	case *isdl.Call:
		return e.call(x)
	}
	return nil, fmt.Errorf("cannot synthesize %s", x)
}

func constE(v bitvec.Value) verilog.Expr {
	// Verilog literals in the subset are ≤64 bits; wider constants are
	// concatenated.
	if v.Width() <= 64 {
		return &verilog.Const{Val: v}
	}
	var parts []verilog.Expr
	w := v.Width()
	for hi := w - 1; hi >= 0; hi -= 64 {
		lo := hi - 63
		if lo < 0 {
			lo = 0
		}
		parts = append(parts, &verilog.Const{Val: v.Slice(hi, lo)})
	}
	return &verilog.ConcatE{Parts: parts, W: w}
}

// call translates a builtin call: one case per call-form entry of the
// operator table, plus pop.
func (e *venv) call(x *isdl.Call) (verilog.Expr, error) {
	g := e.g
	arg := func(i int) (verilog.Expr, error) { return e.expr(x.Args[i]) }
	if x.Def == nil {
		return e.pop(x), nil
	}

	switch x.Def.Name {
	case "zext", "trunc":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		return adjustWidth(g, a, x.W), nil

	case "sext":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		a = g.ensureRef(a)
		aw := verilog.Width(a)
		if x.W <= aw {
			return adjustWidth(g, a, x.W), nil
		}
		sign := &verilog.Slice{X: a, Hi: aw - 1, Lo: aw - 1}
		ext := &verilog.Ternary{C: sign, A: constE(bitvec.New(x.W - aw).Not()), B: constE(bitvec.New(x.W - aw)), W: x.W - aw}
		return &verilog.ConcatE{Parts: []verilog.Expr{ext, a}, W: x.W}, nil

	case "carry":
		a, b, err := e.refs(x)
		if err != nil {
			return nil, err
		}
		w := verilog.Width(a)
		sum := g.store(&verilog.Binary{Op: "+",
			X: &verilog.ConcatE{Parts: []verilog.Expr{constE(bitvec.New(1)), a}, W: w + 1},
			Y: &verilog.ConcatE{Parts: []verilog.Expr{constE(bitvec.New(1)), b}, W: w + 1},
			W: w + 1}, w+1)
		return &verilog.Slice{X: sum, Hi: w, Lo: w}, nil

	case "borrow":
		a, err := arg(0)
		if err != nil {
			return nil, err
		}
		b, err := arg(1)
		if err != nil {
			return nil, err
		}
		return &verilog.Binary{Op: "<", X: a, Y: b, W: 1}, nil

	case "addov":
		return e.overflow(x, "+", "==")
	case "subov":
		return e.overflow(x, "-", "!=")

	case "slt":
		return e.signedCmp(x, false, "<")
	case "sle":
		return e.signedCmp(x, false, "<=")
	case "sgt":
		return e.signedCmp(x, true, ">")
	case "sge":
		return e.signedCmp(x, true, ">=")

	case "asr":
		a, n, err := e.refs(x)
		if err != nil {
			return nil, err
		}
		w := verilog.Width(a)
		logical := g.store(&verilog.Binary{Op: ">>", X: a, Y: n, W: w}, w)
		highMask := &verilog.Unary{Op: "~", X: &verilog.Binary{Op: ">>", X: constE(bitvec.New(w).Not()), Y: n, W: w}, W: w}
		sign := &verilog.Slice{X: a, Hi: w - 1, Lo: w - 1}
		return &verilog.Ternary{C: sign,
			A: &verilog.Binary{Op: "|", X: logical, Y: highMask, W: w},
			B: logical, W: w}, nil

	case "concat":
		c := &verilog.ConcatE{W: x.W}
		for i := range x.Args {
			v, err := arg(i)
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, v)
		}
		return c, nil
	}
	return nil, fmt.Errorf("no Verilog for builtin %s", x.Fn)
}

// overflow is addov or subov: the signs of the operands compare with
// signsCmp, and the sign of a op b differs from a's.
func (e *venv) overflow(x *isdl.Call, op, signsCmp string) (verilog.Expr, error) {
	a, b, err := e.refs(x)
	if err != nil {
		return nil, err
	}
	w := verilog.Width(a)
	res := e.g.store(&verilog.Binary{Op: op, X: a, Y: b, W: w}, w)
	am := &verilog.Slice{X: a, Hi: w - 1, Lo: w - 1}
	bm := &verilog.Slice{X: b, Hi: w - 1, Lo: w - 1}
	rm := &verilog.Slice{X: res, Hi: w - 1, Lo: w - 1}
	return &verilog.Binary{Op: "&&",
		X: &verilog.Binary{Op: signsCmp, X: am, Y: bm, W: 1},
		Y: &verilog.Binary{Op: "!=", X: rm, Y: am, W: 1},
		W: 1}, nil
}

// signedCmp is a signed comparison: when the signs differ the result is
// a's sign bit (b's when onDiffB), otherwise the unsigned comparison uop.
func (e *venv) signedCmp(x *isdl.Call, onDiffB bool, uop string) (verilog.Expr, error) {
	a, b, err := e.refs(x)
	if err != nil {
		return nil, err
	}
	w := verilog.Width(a)
	am := &verilog.Slice{X: a, Hi: w - 1, Lo: w - 1}
	bm := &verilog.Slice{X: b, Hi: w - 1, Lo: w - 1}
	var onDiff verilog.Expr = am
	if onDiffB {
		onDiff = bm
	}
	return &verilog.Ternary{C: &verilog.Binary{Op: "!=", X: am, Y: bm, W: 1}, A: onDiff,
		B: &verilog.Binary{Op: uop, X: a, Y: b, W: 1}, W: 1}, nil
}

// refs translates a two-operand call's arguments, in order, each into a
// simple net.
func (e *venv) refs(x *isdl.Call) (a, b verilog.Expr, err error) {
	if a, err = e.expr(x.Args[0]); err != nil {
		return nil, nil, err
	}
	a = e.g.ensureRef(a)
	if b, err = e.expr(x.Args[1]); err != nil {
		return nil, nil, err
	}
	return a, e.g.ensureRef(b), nil
}

// pop reads the top of stack into a temporary and bumps the pointer down,
// guarded by the enclosing condition (the read itself is harmless).
func (e *venv) pop(x *isdl.Call) verilog.Expr {
	g := e.g
	name := "s_" + x.Args[0].(*isdl.Ref).Name
	spW, _, _ := g.mod.NetByName(name + "_sp")
	w, _, _ := g.mod.NetByName(name)
	sp := &verilog.Ref{Name: name + "_sp", W: spW}
	one := constE(bitvec.FromUint64(spW, 1))
	spm1 := g.store(&verilog.Binary{Op: "-", X: sp, Y: one, W: spW}, spW)
	val := g.store(&verilog.Index{Name: name, Idx: spm1, W: w}, w)
	dec := verilog.Stmt(&verilog.BAssign{LHS: &verilog.NetL{Name: name + "_sp"}, RHS: spm1})
	if e.guard != nil {
		dec = &verilog.If{Cond: e.guard, Then: []verilog.Stmt{dec}}
	}
	g.stmt(dec)
	return val
}

// adjustWidth zero-extends or truncates an expression to w bits.
func adjustWidth(g *vgen, e verilog.Expr, w int) verilog.Expr {
	ew := verilog.Width(e)
	switch {
	case ew == w:
		return e
	case ew > w:
		return &verilog.Slice{X: g.ensureRef(e), Hi: w - 1, Lo: 0}
	default:
		return &verilog.ConcatE{Parts: []verilog.Expr{constE(bitvec.New(w - ew)), e}, W: w}
	}
}
