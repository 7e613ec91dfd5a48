package gensim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/isdl"
)

// This file compiles RTL expressions and statements into Go source. Every
// construct mirrors the interpreter in internal/xsim/eval.go bit for bit:
// evaluation order (and therefore read counting), canonical-width masking,
// the operator table's value rules (internal/isdl/ops.go: shift and divide
// edge cases included), and fault points. Values stay in uint64 — the
// generator refuses descriptions whose RTL touches anything wider.

// cw is an indented code writer.
type cw struct {
	sb     strings.Builder
	indent int
}

func (w *cw) ln(format string, args ...any) {
	for i := 0; i < w.indent; i++ {
		w.sb.WriteByte('\t')
	}
	fmt.Fprintf(&w.sb, format, args...)
	w.sb.WriteByte('\n')
}

func (w *cw) in()  { w.indent++ }
func (w *cw) out() { w.indent-- }

// scope is one parameter binding level: an operation's parameters, or one
// option's parameters when compiling inside a non-terminal. path uniquely
// names the level for method memoization. A read-set scope also fixes the
// option of every non-terminal (assign), so a non-terminal's value
// compiles inline as the chosen option's.
type scope struct {
	og     *opGen
	locs   []paramLoc
	path   string
	assign map[*paramLoc]int
}

func (sc *scope) find(p *isdl.Param) *paramLoc {
	for i := range sc.locs {
		if sc.locs[i].p == p {
			return &sc.locs[i]
		}
	}
	return nil
}

func (sc *scope) sub(pl *paramLoc, oi int) *scope {
	return &scope{
		og:   sc.og,
		locs: pl.opts[oi].params,
		path: sc.path + "_" + ident(pl.p.Name) + "_o" + fmt.Sprint(oi),
	}
}

// chosen returns a read-set scope's option for pl and the scope of that
// option's parameters.
func (sc *scope) chosen(pl *paramLoc) (*isdl.Option, *scope) {
	os := pl.opts[sc.assign[pl]]
	return os.opt, &scope{og: sc.og, locs: os.params, assign: sc.assign}
}

// Option implements isdl.ReadScope for a read-set scope.
func (sc *scope) Option(i int) (*isdl.Option, isdl.ReadScope) { return sc.chosen(&sc.locs[i]) }

func ident(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || (r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') {
			b.WriteRune(r)
		} else {
			b.WriteByte('x')
		}
	}
	return b.String()
}

// masked truncates an expression to w bits (canonical-form invariant).
func masked(s string, w int) string {
	if w >= 64 {
		return "(" + s + ")"
	}
	return "(" + s + ") & " + hexU(maskU(w))
}

func (g *gen) checkWidth(w int, what string) error {
	if w < 1 || w > 64 {
		return g.unsupported("%s is %d bits wide (want 1..64)", what, w)
	}
	return nil
}

// expr compiles an RTL expression to a pure Go expression over the decoded
// argument array `a` and the machine `m`. Side effects (read counting, pop)
// live in method calls inside the expression, so Go's left-to-right
// evaluation preserves the interpreter's effect order.
func (g *gen) expr(e isdl.Expr, sc *scope) (string, error) {
	if err := g.checkWidth(e.Width(), "expression"); err != nil {
		return "", err
	}
	switch e := e.(type) {
	case *isdl.Lit:
		return hexU(e.Val.Uint64()), nil

	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			if e.Storage.Width > 64 {
				return "", g.unsupported("storage %s is %d bits wide", e.Storage.Name, e.Storage.Width)
			}
			return fmt.Sprintf("m.rd(%d, 0)", e.Storage.Index), nil
		case e.AliasTo != nil:
			name, err := g.aliasMethod(e.AliasTo)
			if err != nil {
				return "", err
			}
			return "m." + name + "()", nil
		case e.Param != nil:
			pl := sc.find(e.Param)
			if pl == nil {
				return "", g.unsupported("parameter %s not bound in scope", e.Param.Name)
			}
			if pl.p.Token != nil {
				return fmt.Sprintf("a[%d]", pl.slot), nil
			}
			if sc.assign != nil {
				opt, sub := sc.chosen(pl)
				return g.expr(opt.Value, sub)
			}
			name, err := g.valueMethod(sc, pl)
			if err != nil {
				return "", err
			}
			return "m." + name + "(a)", nil
		}
		return "", g.unsupported("unresolved reference %s", e.Name)

	case *isdl.Index:
		if e.Storage == nil {
			return "", g.unsupported("unresolved indexed access %s", e.Name)
		}
		if e.Storage.Width > 64 {
			return "", g.unsupported("storage %s is %d bits wide", e.Storage.Name, e.Storage.Width)
		}
		// The index expression evaluates (and counts its reads) before the
		// element read, exactly like eval's Index case.
		addr, err := g.addr(e.Storage, e.Idx, sc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("m.rd(%d, %s)", e.Storage.Index, addr), nil

	case *isdl.SliceE:
		x, err := g.expr(e.X, sc)
		if err != nil {
			return "", err
		}
		w := e.Hi - e.Lo + 1
		if e.Lo == 0 && w == e.X.Width() {
			return x, nil
		}
		if e.Lo == 0 {
			return masked(x, w), nil
		}
		return masked(fmt.Sprintf("%s >> %d", x, e.Lo), w), nil

	case *isdl.Unary:
		x, err := g.expr(e.X, sc)
		if err != nil {
			return "", err
		}
		return g.op(e.Def, []string{x}, []int{e.X.Width()}, e.W)

	case *isdl.Binary:
		x, err := g.expr(e.X, sc)
		if err != nil {
			return "", err
		}
		y, err := g.expr(e.Y, sc)
		if err != nil {
			return "", err
		}
		return g.op(e.Def, []string{x, y}, []int{e.X.Width(), e.Y.Width()}, e.W)

	case *isdl.Call:
		if e.Def == nil {
			return pop(e), nil
		}
		ops := e.Operands()
		xs, ws := make([]string, len(ops)), make([]int, len(ops))
		for i, a := range ops {
			x, err := g.expr(a, sc)
			if err != nil {
				return "", err
			}
			xs[i], ws[i] = x, a.Width()
		}
		return g.op(e.Def, xs, ws, e.W)
	}
	return "", g.unsupported("expression form %T", e)
}

// op compiles an operator table entry applied to compiled operands xs of
// widths ws, with result width w: one case per entry.
func (g *gen) op(o *isdl.Operator, xs []string, ws []int, w int) (string, error) {
	x, xw := xs[0], ws[0]
	var y string
	if len(xs) > 1 {
		y = xs[1]
	}
	switch o.Form {
	case isdl.FormUnary:
		switch o.Name {
		case "-":
			return masked("-"+x, w), nil
		case "~":
			return masked("^"+x, w), nil
		case "!":
			return fmt.Sprintf("b2u(%s == 0)", x), nil
		}

	case isdl.FormBinary:
		// Go spells + - * & | ^ and the comparisons as ISDL does.
		switch o.Name {
		case "+", "-", "*":
			return masked(x+" "+o.Name+" "+y, w), nil
		case "/":
			return fmt.Sprintf("hdivu(%s, %s, %s)", x, y, hexU(maskU(w))), nil
		case "%":
			return fmt.Sprintf("hmodu(%s, %s)", x, y), nil
		case "&", "|", "^":
			return "(" + x + " " + o.Name + " " + y + ")", nil
		case "<<":
			return fmt.Sprintf("hshl(%s, %s, %d, %s)", x, y, xw, hexU(maskU(xw))), nil
		case ">>":
			return fmt.Sprintf("hshr(%s, %s, %d)", x, y, xw), nil
		case "==", "!=", "<", "<=", ">", ">=":
			return fmt.Sprintf("b2u(%s %s %s)", x, o.Name, y), nil
		// Go's && and || skip the right operand, and its reads, exactly
		// like the interpreter.
		case "&&":
			return fmt.Sprintf("b2u(%s != 0 && %s != 0)", x, y), nil
		case "||":
			return fmt.Sprintf("b2u(%s != 0 || %s != 0)", x, y), nil
		}

	case isdl.FormCall:
		switch o.Name {
		// bitvec's SignExt and ZeroExt truncate when narrowing, and Trunc
		// zero-extends when widening.
		case "sext":
			if w <= xw {
				return resize(x, xw, w), nil
			}
			return fmt.Sprintf("hsext(%s, %d, %s)", x, xw-1, hexU(maskU(w)&^maskU(xw))), nil
		case "zext", "trunc":
			return resize(x, xw, w), nil
		case "carry":
			return fmt.Sprintf("b2u(hcarry(%s, %s, %d))", x, y, xw), nil
		case "borrow":
			return fmt.Sprintf("b2u(%s < %s)", x, y), nil
		case "addov":
			return fmt.Sprintf("b2u(haddov(%s, %s, %d))", x, y, xw-1), nil
		case "subov":
			return fmt.Sprintf("b2u(hsubov(%s, %s, %d))", x, y, xw-1), nil
		case "slt":
			return fmt.Sprintf("b2u(sxt(%s, %d) < sxt(%s, %d))", x, xw, y, xw), nil
		case "sle":
			return fmt.Sprintf("b2u(sxt(%s, %d) <= sxt(%s, %d))", x, xw, y, xw), nil
		case "sgt":
			return fmt.Sprintf("b2u(sxt(%s, %d) > sxt(%s, %d))", x, xw, y, xw), nil
		case "sge":
			return fmt.Sprintf("b2u(sxt(%s, %d) >= sxt(%s, %d))", x, xw, y, xw), nil
		case "asr":
			return fmt.Sprintf("hasr(%s, %s, %d, %s)", x, y, xw, hexU(maskU(xw))), nil
		case "concat":
			acc := x
			for i := 1; i < len(xs); i++ {
				acc = fmt.Sprintf("(%s<<%d | %s)", acc, ws[i], xs[i])
			}
			return acc, nil
		}
	}
	return "", g.unsupported("operator %s", o.Name)
}

// resize adjusts a canonical fw-bit value to tw bits without sign
// extension: a mask when narrowing, nothing when widening.
func resize(x string, fw, tw int) string {
	if tw < fw {
		return masked(x, tw)
	}
	return x
}

// addr compiles an index value into an address of st under
// isdl.Storage.Addr; a literal index becomes its address at generation
// time.
func (g *gen) addr(st *isdl.Storage, idx isdl.Expr, sc *scope) (string, error) {
	x, err := g.expr(idx, sc)
	if err != nil {
		return "", err
	}
	if lit, ok := idx.(*isdl.Lit); ok {
		return strconv.Itoa(st.Addr(lit.Val.Uint64())), nil
	}
	return fmt.Sprintf("wrapIdx(%s, %d)", x, st.Depth), nil
}

// pop compiles a pop call (a value; push is only a statement). sem
// resolved its target to a stack.
func pop(e *isdl.Call) string {
	return fmt.Sprintf("m.pop%d()", e.Args[0].(*isdl.Ref).Storage.Index)
}

// loc compiles an lvalue to a wr expression (evalLoc).
func (g *gen) loc(e isdl.Expr, sc *scope) (string, error) {
	switch e := e.(type) {
	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			return fmt.Sprintf("wr{sid: %d, idx: 0, hi: -1, lo: -1}", e.Storage.Index), nil
		case e.AliasTo != nil:
			a := e.AliasTo
			hi, lo := -1, -1
			if a.Sliced {
				hi, lo = a.Hi, a.Lo
			}
			// sem checked that the alias index is an address.
			return fmt.Sprintf("wr{sid: %d, idx: %d, hi: %d, lo: %d}", a.Storage.Index, a.Index, hi, lo), nil
		case e.Param != nil:
			pl := sc.find(e.Param)
			if pl == nil {
				return "", g.unsupported("parameter %s not bound in scope", e.Param.Name)
			}
			if pl.p.NT == nil {
				return "", g.unsupported("token parameter %s used as lvalue", e.Param.Name)
			}
			name, err := g.locMethod(sc, pl)
			if err != nil {
				return "", err
			}
			return "m." + name + "(a)", nil
		}
		return "", g.unsupported("unresolved lvalue %s", e.Name)
	case *isdl.Index:
		if e.Storage == nil {
			return "", g.unsupported("unresolved indexed lvalue %s", e.Name)
		}
		addr, err := g.addr(e.Storage, e.Idx, sc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("wr{sid: %d, idx: %s, hi: -1, lo: -1}", e.Storage.Index, addr), nil
	case *isdl.SliceE:
		base, err := g.loc(e.X, sc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("sliceLoc(%s, %d, %d)", base, e.Hi, e.Lo), nil
	}
	return "", g.unsupported("lvalue form %T", e)
}

// stmts compiles a statement list into w (execStmts).
func (g *gen) stmts(list []isdl.Stmt, sc *scope, w *cw) error {
	for _, s := range list {
		switch s := s.(type) {
		case *isdl.Assign:
			rhs, err := g.expr(s.RHS, sc)
			if err != nil {
				return err
			}
			n := g.tmp
			g.tmp++
			w.ln("v%d := uint64(%s)", n, rhs)
			lhs, err := g.loc(s.LHS, sc)
			if err != nil {
				return err
			}
			w.ln("ph.wrs = append(ph.wrs, wrv(%s, v%d))", lhs, n)
		case *isdl.If:
			cond, err := g.expr(s.Cond, sc)
			if err != nil {
				return err
			}
			w.ln("if %s != 0 {", cond)
			w.in()
			if err := g.stmts(s.Then, sc, w); err != nil {
				return err
			}
			w.out()
			if len(s.Else) > 0 {
				w.ln("} else {")
				w.in()
				if err := g.stmts(s.Else, sc, w); err != nil {
					return err
				}
				w.out()
			}
			w.ln("}")
		case *isdl.ExprStmt:
			call, ok := s.X.(*isdl.Call)
			if !ok {
				continue
			}
			switch call.Fn {
			case "push":
				v, err := g.expr(call.Args[1], sc)
				if err != nil {
					return err
				}
				n := g.tmp
				g.tmp++
				w.ln("v%d := uint64(%s)", n, v)
				w.ln("ph.pushes = append(ph.pushes, pushOp{sid: %d, val: v%d})", call.Args[0].(*isdl.Ref).Storage.Index, n)
			case "pop":
				// A pop statement pops at exec time and drops the value.
				w.ln("_ = %s", pop(call))
			}
			// Other builtins in statement position are ignored (execStmts).
		}
	}
	return nil
}

// valueMethod emits (once) and names the method computing a non-terminal
// parameter's value: a switch over the decoded option index.
func (g *gen) valueMethod(sc *scope, pl *paramLoc) (string, error) {
	name := fmt.Sprintf("v%d%s_%s", sc.og.id, sc.path, ident(pl.p.Name))
	if g.emitted[name] {
		return name, nil
	}
	g.emitted[name] = true
	w := &cw{}
	w.ln("func (m *mach) %s(a []uint64) uint64 {", name)
	w.in()
	w.ln("switch a[%d] {", pl.slot)
	for oi, os := range pl.opts {
		e, err := g.expr(os.opt.Value, sc.sub(pl, oi))
		if err != nil {
			return "", err
		}
		w.ln("case %d:", oi)
		w.in()
		w.ln("return %s", e)
		w.out()
	}
	w.ln("}")
	w.ln("return 0")
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return name, nil
}

// locMethod is valueMethod's lvalue twin: the option's value expression
// compiled as a write destination.
func (g *gen) locMethod(sc *scope, pl *paramLoc) (string, error) {
	name := fmt.Sprintf("l%d%s_%s", sc.og.id, sc.path, ident(pl.p.Name))
	if g.emitted[name] {
		return name, nil
	}
	g.emitted[name] = true
	w := &cw{}
	w.ln("func (m *mach) %s(a []uint64) wr {", name)
	w.in()
	w.ln("switch a[%d] {", pl.slot)
	for oi, os := range pl.opts {
		l, err := g.loc(os.opt.Value, sc.sub(pl, oi))
		if err != nil {
			return "", err
		}
		w.ln("case %d:", oi)
		w.in()
		w.ln("return %s", l)
		w.out()
	}
	w.ln("}")
	w.ln("return wr{hi: -1, lo: -1}")
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return name, nil
}

// aliasMethod emits (once) the counted read of an alias: element fetch at
// the alias's address plus the optional bit slice.
func (g *gen) aliasMethod(a *isdl.Alias) (string, error) {
	st := a.Storage
	if st.Width > 64 {
		return "", g.unsupported("storage %s is %d bits wide", st.Name, st.Width)
	}
	name := fmt.Sprintf("rda%d", g.aliasIdx[a])
	if g.emitted[name] {
		return name, nil
	}
	g.emitted[name] = true
	sid, idx := st.Index, a.Index
	w := &cw{}
	w.ln("// %s reads alias %s = %s.", name, a.Name, a.Target)
	w.ln("func (m *mach) %s() uint64 {", name)
	w.in()
	w.ln("m.reads++")
	if a.Sliced {
		sw := a.Hi - a.Lo + 1
		if a.Lo == 0 {
			w.ln("return m.st[%d][%d] & %s", sid, idx, hexU(maskU(sw)))
		} else {
			w.ln("return m.st[%d][%d] >> %d & %s", sid, idx, a.Lo, hexU(maskU(sw)))
		}
	} else {
		w.ln("return m.st[%d][%d]", sid, idx)
	}
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return name, nil
}

// emitActionMethod compiles one operation's action phase.
func (g *gen) emitActionMethod(og *opGen) error {
	w := &cw{}
	w.ln("func (m *mach) ac%d(a []uint64, ph *phaseBuf) {", og.id)
	w.in()
	if err := g.stmts(og.op.Action, &scope{og: og, locs: og.params}, w); err != nil {
		return err
	}
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return nil
}

// emitSideMethod compiles one operation's side-effect phase: the
// operation's own statements, then each decoded option's side effects in
// parameter declaration order, depth first (execOptionSideEffects).
func (g *gen) emitSideMethod(og *opGen) error {
	w := &cw{}
	w.ln("func (m *mach) se%d(a []uint64, ph *phaseBuf) {", og.id)
	w.in()
	sc := &scope{og: og, locs: og.params}
	if err := g.stmts(og.op.SideEffect, sc, w); err != nil {
		return err
	}
	if err := g.emitOptSides(w, sc); err != nil {
		return err
	}
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return nil
}

func (g *gen) emitOptSides(w *cw, sc *scope) error {
	for i := range sc.locs {
		pl := &sc.locs[i]
		if pl.p.NT == nil || !plHasSide(pl) {
			continue
		}
		w.ln("switch a[%d] {", pl.slot)
		for oi, os := range pl.opts {
			sub := sc.sub(pl, oi)
			body := &cw{indent: w.indent + 1}
			if err := g.stmts(os.opt.SideEffect, sub, body); err != nil {
				return err
			}
			if err := g.emitOptSides(body, sub); err != nil {
				return err
			}
			if body.sb.Len() == 0 {
				continue
			}
			w.ln("case %d:", oi)
			w.sb.WriteString(body.sb.String())
		}
		w.ln("}")
	}
	return nil
}

func plHasSide(pl *paramLoc) bool {
	for _, os := range pl.opts {
		if len(os.opt.SideEffect) > 0 || paramsHaveSide(os.params) {
			return true
		}
	}
	return false
}
