package gensim

import (
	"fmt"

	"repro/internal/isdl"
)

// This file generates the per-operation read-set methods that feed the
// data-hazard interlock. The interpreter (internal/xsim/readset.go) walks
// the RTL per decoded instruction; here the walk runs at generation time,
// once per combination of decoded non-terminal options, and each
// combination becomes a switch case over the decoded option indices. Index
// expressions that the interpreter's staticEval can decide are compiled to
// the same value over the argument array; the rest degrade to the same
// whole-storage wildcard (index -1).

// maxCombos bounds the option-combination product per operation; a
// description beyond it is unsupported (falls back to the interpreter).
const maxCombos = 512

type choice struct {
	pl  *paramLoc
	opt int
}

// comboCount is the size of the option cross-product for a parameter list.
func comboCount(locs []paramLoc) int {
	n := 1
	for i := range locs {
		pl := &locs[i]
		if pl.p.NT == nil {
			continue
		}
		s := 0
		for _, os := range pl.opts {
			s += comboCount(os.params)
			if s > maxCombos {
				return s
			}
		}
		n *= s
		if n > maxCombos {
			return n
		}
	}
	return n
}

// combosOf enumerates every assignment of options to non-terminal
// parameters, recursively.
func combosOf(locs []paramLoc) [][]choice {
	out := [][]choice{{}}
	for i := range locs {
		pl := &locs[i]
		if pl.p.NT == nil {
			continue
		}
		var next [][]choice
		for oi, os := range pl.opts {
			for _, sub := range combosOf(os.params) {
				for _, base := range out {
					c := make([]choice, 0, len(base)+1+len(sub))
					c = append(c, base...)
					c = append(c, choice{pl: pl, opt: oi})
					c = append(c, sub...)
					next = append(next, c)
				}
			}
		}
		out = next
	}
	return out
}

// rsctx compiles the read-set walk for one fixed option assignment.
type rsctx struct {
	g      *gen
	assign map[*paramLoc]int
}

func findPL(locs []paramLoc, p *isdl.Param) *paramLoc {
	for i := range locs {
		if locs[i].p == p {
			return &locs[i]
		}
	}
	return nil
}

// emitRS generates func (m *mach) rs<id>(a []uint64) []rloc.
func (g *gen) emitRS(og *opGen) error {
	if n := comboCount(og.params); n > maxCombos {
		return g.unsupported("operation %s has %d option combinations (max %d)", og.op.QualName(), n, maxCombos)
	}
	combos := combosOf(og.params)
	type comboBody struct {
		cond string
		body string
	}
	var cases []comboBody
	empty := true
	for _, combo := range combos {
		c := &rsctx{g: g, assign: map[*paramLoc]int{}}
		var conds []string
		for _, ch := range combo {
			c.assign[ch.pl] = ch.opt
			conds = append(conds, fmt.Sprintf("a[%d] == %d", ch.pl.slot, ch.opt))
		}
		body := &cw{indent: 1}
		if err := c.rstmts(og.op.Action, og.params, body); err != nil {
			return err
		}
		if err := c.rstmts(og.op.SideEffect, og.params, body); err != nil {
			return err
		}
		if err := c.roptEffects(og.params, body); err != nil {
			return err
		}
		if body.sb.Len() > 0 {
			empty = false
		}
		cond := "true"
		if len(conds) > 0 {
			cond = joinAnd(conds)
		}
		cases = append(cases, comboBody{cond: cond, body: body.sb.String()})
	}

	w := &cw{}
	w.ln("func (m *mach) rs%d(a []uint64) []rloc {", og.id)
	w.in()
	switch {
	case empty:
		w.ln("return nil")
	case len(cases) == 1:
		w.ln("var out []rloc")
		w.sb.WriteString(reindent(cases[0].body, w.indent))
		w.ln("return out")
	default:
		w.ln("var out []rloc")
		w.ln("switch {")
		for _, cb := range cases {
			w.ln("case %s:", cb.cond)
			w.sb.WriteString(reindent(cb.body, w.indent+1))
		}
		w.ln("}")
		w.ln("return out")
	}
	w.out()
	w.ln("}")
	w.ln("")
	g.methods = append(g.methods, w.sb.String())
	return nil
}

func joinAnd(conds []string) string {
	s := conds[0]
	for _, c := range conds[1:] {
		s += " && " + c
	}
	return s
}

// reindent shifts a body emitted at indent 1 to the target indent.
func reindent(body string, indent int) string {
	if indent == 1 || body == "" {
		return body
	}
	pad := ""
	for i := 1; i < indent; i++ {
		pad += "\t"
	}
	var out string
	for len(body) > 0 {
		i := 0
		for i < len(body) && body[i] != '\n' {
			i++
		}
		out += pad + body[:i+1]
		body = body[i+1:]
	}
	return out
}

// roptEffects mirrors optionEffects: per non-terminal parameter in
// declaration order, the chosen option's side effects then its own
// parameters, depth first.
func (c *rsctx) roptEffects(locs []paramLoc, w *cw) error {
	for i := range locs {
		pl := &locs[i]
		if pl.p.NT == nil {
			continue
		}
		oi := c.assign[pl]
		os := pl.opts[oi]
		if err := c.rstmts(os.opt.SideEffect, os.params, w); err != nil {
			return err
		}
		if err := c.roptEffects(os.params, w); err != nil {
			return err
		}
	}
	return nil
}

// rstmts mirrors readCollector.stmts.
func (c *rsctx) rstmts(list []isdl.Stmt, locs []paramLoc, w *cw) error {
	for _, s := range list {
		switch s := s.(type) {
		case *isdl.Assign:
			if err := c.rexpr(s.RHS, locs, w); err != nil {
				return err
			}
			if err := c.rlhs(s.LHS, locs, w); err != nil {
				return err
			}
		case *isdl.If:
			if err := c.rexpr(s.Cond, locs, w); err != nil {
				return err
			}
			if err := c.rstmts(s.Then, locs, w); err != nil {
				return err
			}
			if err := c.rstmts(s.Else, locs, w); err != nil {
				return err
			}
		case *isdl.ExprStmt:
			if err := c.rexpr(s.X, locs, w); err != nil {
				return err
			}
		}
	}
	return nil
}

// rlhs mirrors readCollector.lhsIndices: only index computations on the
// write path are reads.
func (c *rsctx) rlhs(e isdl.Expr, locs []paramLoc, w *cw) error {
	switch e := e.(type) {
	case *isdl.Index:
		return c.rexpr(e.Idx, locs, w)
	case *isdl.SliceE:
		return c.rlhs(e.X, locs, w)
	case *isdl.Ref:
		if e.Param != nil && e.Param.NT != nil {
			pl := findPL(locs, e.Param)
			if pl == nil {
				return c.g.unsupported("parameter %s not bound in scope", e.Param.Name)
			}
			oi := c.assign[pl]
			return c.rlhs(pl.opts[oi].opt.Value, pl.opts[oi].params, w)
		}
	}
	return nil
}

// rexpr mirrors readCollector.expr.
func (c *rsctx) rexpr(e isdl.Expr, locs []paramLoc, w *cw) error {
	switch e := e.(type) {
	case *isdl.Lit:
		return nil
	case *isdl.Ref:
		switch {
		case e.Storage != nil:
			idx := 0
			if e.Storage.Kind == isdl.StStack {
				idx = -1
			}
			w.ln("out = addr(out, %d, %d)", c.g.sid[e.Storage.Name], idx)
		case e.AliasTo != nil:
			a := e.AliasTo
			st, ok := c.g.d.StorageByName[a.Target]
			if !ok {
				return c.g.unsupported("alias %s targets unknown storage %s", a.Name, a.Target)
			}
			// Raw alias index, exactly like the collector.
			w.ln("out = addr(out, %d, %d)", c.g.sid[st.Name], int(a.Index))
		case e.Param != nil && e.Param.NT != nil:
			pl := findPL(locs, e.Param)
			if pl == nil {
				return c.g.unsupported("parameter %s not bound in scope", e.Param.Name)
			}
			oi := c.assign[pl]
			return c.rexpr(pl.opts[oi].opt.Value, pl.opts[oi].params, w)
		}
		return nil
	case *isdl.Index:
		// Index expression reads first, then the element: static index if
		// decidable (wrapped with the collector's %), else a wildcard.
		if err := c.rexpr(e.Idx, locs, w); err != nil {
			return err
		}
		if e.Storage == nil {
			return nil
		}
		sid := c.g.sid[e.Storage.Name]
		s, ok, err := c.rstatic(e.Idx, locs)
		if err != nil {
			return err
		}
		if !ok {
			w.ln("out = addr(out, %d, -1)", sid)
			return nil
		}
		if e.Storage.Depth > 0 {
			w.ln("out = addr(out, %d, int(%s)%%%d)", sid, s, e.Storage.Depth)
		} else {
			w.ln("out = addr(out, %d, int(%s))", sid, s)
		}
		return nil
	case *isdl.SliceE:
		return c.rexpr(e.X, locs, w)
	case *isdl.Unary:
		return c.rexpr(e.X, locs, w)
	case *isdl.Binary:
		// The collector traverses both operands even for && / ||.
		if err := c.rexpr(e.X, locs, w); err != nil {
			return err
		}
		return c.rexpr(e.Y, locs, w)
	case *isdl.Call:
		if e.Fn == "pop" {
			// The whole stack, any element; no argument recursion.
			if ref, ok := e.Args[0].(*isdl.Ref); ok {
				if st, ok := c.g.d.StorageByName[ref.Name]; ok {
					w.ln("out = addr(out, %d, -1)", c.g.sid[st.Name])
				}
			}
			return nil
		}
		for i, a := range e.Args {
			if i == 1 && (e.Fn == "sext" || e.Fn == "zext" || e.Fn == "trunc") {
				continue // width argument
			}
			if err := c.rexpr(a, locs, w); err != nil {
				return err
			}
		}
		return nil
	}
	return nil
}

// rstatic mirrors staticEval: compiles an index expression that is
// decidable at decode time to a Go expression over the argument array.
func (c *rsctx) rstatic(e isdl.Expr, locs []paramLoc) (string, bool, error) {
	if w := e.Width(); w < 1 || w > 64 {
		return "", false, c.g.unsupported("expression is %d bits wide (want 1..64)", w)
	}
	switch e := e.(type) {
	case *isdl.Lit:
		return hexU(e.Val.Uint64()), true, nil
	case *isdl.Ref:
		if e.Param == nil {
			return "", false, nil
		}
		pl := findPL(locs, e.Param)
		if pl == nil {
			return "", false, nil
		}
		if pl.p.Token != nil {
			return fmt.Sprintf("a[%d]", pl.slot), true, nil
		}
		oi := c.assign[pl]
		return c.rstatic(pl.opts[oi].opt.Value, pl.opts[oi].params)
	case *isdl.SliceE:
		x, ok, err := c.rstatic(e.X, locs)
		if !ok || err != nil {
			return "", false, err
		}
		w := e.Hi - e.Lo + 1
		if e.Lo == 0 && w == e.X.Width() {
			return x, true, nil
		}
		if e.Lo == 0 {
			return masked(x, w), true, nil
		}
		return masked(fmt.Sprintf("%s >> %d", x, e.Lo), w), true, nil
	case *isdl.Unary:
		x, ok, err := c.rstatic(e.X, locs)
		if !ok || err != nil {
			return "", false, err
		}
		switch e.Op {
		case "-":
			return masked("-"+x, e.W), true, nil
		case "~":
			return masked("^"+x, e.W), true, nil
		case "!":
			return fmt.Sprintf("b2u(%s == 0)", x), true, nil
		}
		return "", false, nil
	case *isdl.Binary:
		// && and || route through evalBinary in staticEval, which rejects
		// them — so they are not static.
		if e.Op == "&&" || e.Op == "||" {
			return "", false, nil
		}
		x, ok, err := c.rstatic(e.X, locs)
		if !ok || err != nil {
			return "", false, err
		}
		y, ok, err := c.rstatic(e.Y, locs)
		if !ok || err != nil {
			return "", false, err
		}
		s, err := c.g.binOp(e.Op, x, y, e.X.Width(), e.W)
		if err != nil {
			return "", false, nil
		}
		return s, true, nil
	case *isdl.Call:
		switch e.Fn {
		case "sext", "zext", "trunc":
			x, ok, err := c.rstatic(e.Args[0], locs)
			if !ok || err != nil {
				return "", false, err
			}
			return extCall(e.Fn, x, e.Args[0].Width(), e.W), true, nil
		}
		return "", false, nil
	}
	return "", false, nil
}
