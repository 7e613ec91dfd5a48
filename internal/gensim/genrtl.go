package gensim

import (
	"fmt"
	"strings"

	"repro/internal/isdl"
)

// This file compiles RTL expressions and statements into Go source. Every
// construct mirrors the interpreter in internal/xsim/eval.go bit for bit:
// evaluation order (and therefore read counting), canonical-width masking,
// shift/divide edge cases, and fault points. Values stay in uint64 — the
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
			return fmt.Sprintf("m.rd(%d, 0, %d)", g.sid[e.Storage.Name], e.Storage.Depth), nil
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
		idx, err := g.expr(e.Idx, sc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("m.rd(%d, int(%s), %d)", g.sid[e.Storage.Name], idx, e.Storage.Depth), nil

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
		switch e.Op {
		case "-":
			return masked("-"+x, e.W), nil
		case "~":
			return masked("^"+x, e.W), nil
		case "!":
			return fmt.Sprintf("b2u(%s == 0)", x), nil
		}
		return "", g.unsupported("unary operator %q", e.Op)

	case *isdl.Binary:
		x, err := g.expr(e.X, sc)
		if err != nil {
			return "", err
		}
		y, err := g.expr(e.Y, sc)
		if err != nil {
			return "", err
		}
		// Short-circuit forms skip the right operand — and its reads —
		// exactly like the interpreter.
		switch e.Op {
		case "&&":
			return fmt.Sprintf("b2u(%s != 0 && %s != 0)", x, y), nil
		case "||":
			return fmt.Sprintf("b2u(%s != 0 || %s != 0)", x, y), nil
		}
		return g.binOp(e.Op, x, y, e.X.Width(), e.W)

	case *isdl.Call:
		return g.call(e, sc)
	}
	return "", g.unsupported("expression form %T", e)
}

// binOp compiles a non-short-circuit binary operator.
func (g *gen) binOp(op, x, y string, xw, w int) (string, error) {
	switch op {
	case "+":
		return masked(x+" + "+y, w), nil
	case "-":
		return masked(x+" - "+y, w), nil
	case "*":
		return masked(x+" * "+y, w), nil
	case "/":
		return fmt.Sprintf("hdivu(%s, %s, %s)", x, y, hexU(maskU(w))), nil
	case "%":
		return fmt.Sprintf("hmodu(%s, %s)", x, y), nil
	case "&":
		return "(" + x + " & " + y + ")", nil
	case "|":
		return "(" + x + " | " + y + ")", nil
	case "^":
		return "(" + x + " ^ " + y + ")", nil
	case "<<":
		return fmt.Sprintf("hshl(%s, int(%s), %d, %s)", x, y, xw, hexU(maskU(xw))), nil
	case ">>":
		return fmt.Sprintf("hshr(%s, int(%s), %d, %s)", x, y, xw, hexU(maskU(xw))), nil
	case "==":
		return fmt.Sprintf("b2u(%s == %s)", x, y), nil
	case "!=":
		return fmt.Sprintf("b2u(%s != %s)", x, y), nil
	case "<":
		return fmt.Sprintf("b2u(%s < %s)", x, y), nil
	case "<=":
		return fmt.Sprintf("b2u(%s <= %s)", x, y), nil
	case ">":
		return fmt.Sprintf("b2u(%s > %s)", x, y), nil
	case ">=":
		return fmt.Sprintf("b2u(%s >= %s)", x, y), nil
	}
	return "", g.unsupported("binary operator %q", op)
}

// extCall compiles sext/zext/trunc width adjustment from fw to tw bits
// (bitvec: SignExt/ZeroExt truncate when narrowing, Trunc zero-extends when
// widening).
func extCall(fn, x string, fw, tw int) string {
	if tw == fw {
		return x
	}
	if tw < fw {
		return masked(x, tw)
	}
	if fn != "sext" {
		return x // canonical value is already zero-extended
	}
	hi := maskU(tw) &^ maskU(fw)
	return fmt.Sprintf("hsext(%s, %d, %s)", x, fw-1, hexU(hi))
}

func (g *gen) call(e *isdl.Call, sc *scope) (string, error) {
	arg := func(i int) (string, error) { return g.expr(e.Args[i], sc) }
	switch e.Fn {
	case "pop":
		ref, ok := e.Args[0].(*isdl.Ref)
		if !ok {
			return "", g.unsupported("pop target form")
		}
		st, ok := g.d.StorageByName[ref.Name]
		if !ok {
			return "", g.unsupported("pop of unknown storage %s", ref.Name)
		}
		sid := g.sid[st.Name]
		if st.Kind != isdl.StStack {
			name := fmt.Sprintf("popbad%d", sid)
			if !g.emitted[name] {
				g.emitted[name] = true
				w := &cw{}
				w.ln("func (m *mach) %s() uint64 {", name)
				w.in()
				w.ln("panic(&simErr{m.curPC, %q})", fmt.Sprintf("state: %s is not a stack", st.Name))
				w.out()
				w.ln("}")
				w.ln("")
				g.methods = append(g.methods, w.sb.String())
			}
			return "m." + name + "()", nil
		}
		return fmt.Sprintf("m.pop%d()", sid), nil
	case "push":
		return "", g.unsupported("push used as a value")
	case "sext", "zext", "trunc":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		return extCall(e.Fn, x, e.Args[0].Width(), e.W), nil
	case "carry":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		y, err := arg(1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("b2u(hcarry(%s, %s, %d))", x, y, e.Args[0].Width()), nil
	case "borrow":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		y, err := arg(1)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("b2u(%s < %s)", x, y), nil
	case "addov", "subov":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		y, err := arg(1)
		if err != nil {
			return "", err
		}
		fn := "haddov"
		if e.Fn == "subov" {
			fn = "hsubov"
		}
		return fmt.Sprintf("b2u(%s(%s, %s, %d))", fn, x, y, e.Args[0].Width()-1), nil
	case "slt", "sle", "sgt", "sge":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		y, err := arg(1)
		if err != nil {
			return "", err
		}
		op := map[string]string{"slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}[e.Fn]
		w := e.Args[0].Width()
		return fmt.Sprintf("b2u(sxt(%s, %d) %s sxt(%s, %d))", x, w, op, y, w), nil
	case "asr":
		x, err := arg(0)
		if err != nil {
			return "", err
		}
		y, err := arg(1)
		if err != nil {
			return "", err
		}
		w := e.Args[0].Width()
		return fmt.Sprintf("hasr(%s, int(%s), %d, %s)", x, y, w, hexU(maskU(w))), nil
	case "concat":
		acc, err := arg(0)
		if err != nil {
			return "", err
		}
		for i := 1; i < len(e.Args); i++ {
			ai, err := arg(i)
			if err != nil {
				return "", err
			}
			acc = fmt.Sprintf("(%s<<%d | %s)", acc, e.Args[i].Width(), ai)
		}
		return acc, nil
	}
	return "", g.unsupported("builtin %s", e.Fn)
}

// loc compiles an lvalue to a wr expression (evalLoc).
func (g *gen) loc(e isdl.Expr, sc *scope) (string, error) {
	switch e := e.(type) {
	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			return fmt.Sprintf("wr{sid: %d, idx: 0, hi: -1, lo: -1}", g.sid[e.Storage.Name]), nil
		case e.AliasTo != nil:
			a := e.AliasTo
			st, ok := g.d.StorageByName[a.Target]
			if !ok {
				return "", g.unsupported("alias %s targets unknown storage %s", a.Name, a.Target)
			}
			hi, lo := -1, -1
			if a.Sliced {
				hi, lo = a.Hi, a.Lo
			}
			// The write index stays raw (evalLoc does not wrap); apply wraps.
			return fmt.Sprintf("wr{sid: %d, idx: %d, hi: %d, lo: %d}", g.sid[st.Name], int(a.Index), hi, lo), nil
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
		idx, err := g.expr(e.Idx, sc)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("wr{sid: %d, idx: int(%s), hi: -1, lo: -1}", g.sid[e.Storage.Name], idx), nil
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
				ref, ok := call.Args[0].(*isdl.Ref)
				if !ok {
					return g.unsupported("push target form")
				}
				st, ok := g.d.StorageByName[ref.Name]
				if !ok {
					return g.unsupported("push to unknown storage %s", ref.Name)
				}
				sid := g.sid[st.Name]
				if st.Kind != isdl.StStack {
					g.pushBad[sid] = st.Name
				}
				v, err := g.expr(call.Args[1], sc)
				if err != nil {
					return err
				}
				n := g.tmp
				g.tmp++
				w.ln("v%d := uint64(%s)", n, v)
				w.ln("ph.pushes = append(ph.pushes, pushOp{sid: %d, val: v%d})", sid, n)
			case "pop":
				// A pop statement pops at exec time and drops the value.
				x, err := g.call(call, sc)
				if err != nil {
					return err
				}
				w.ln("_ = %s", x)
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

// aliasMethod emits (once) the counted read of an alias: element fetch with
// the gen-time wrapped index plus the optional bit slice.
func (g *gen) aliasMethod(a *isdl.Alias) (string, error) {
	st, ok := g.d.StorageByName[a.Target]
	if !ok {
		return "", g.unsupported("alias %s targets unknown storage %s", a.Name, a.Target)
	}
	if st.Width > 64 {
		return "", g.unsupported("storage %s is %d bits wide", st.Name, st.Width)
	}
	name := fmt.Sprintf("rda%d", g.aliasIdx[a])
	if g.emitted[name] {
		return name, nil
	}
	g.emitted[name] = true
	sid := g.sid[st.Name]
	idx := genWrap(int(a.Index), st.Depth)
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
