package gensim

import (
	"fmt"

	"repro/internal/isdl"
)

// This file generates the per-operation read-set methods that feed the
// data-hazard interlock. The walk is isdl's (Operation.Reads, shared with
// the interpreter); it runs here at generation time, once per combination
// of decoded non-terminal options, and each combination becomes a switch
// case over the decoded option indices. Decode-time indices compile to Go
// expressions over the argument array.

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
		sc := &scope{og: og, locs: og.params, assign: map[*paramLoc]int{}}
		var conds []string
		for _, ch := range combo {
			sc.assign[ch.pl] = ch.opt
			conds = append(conds, fmt.Sprintf("a[%d] == %d", ch.pl.slot, ch.opt))
		}
		body := &cw{indent: 1}
		var err error
		og.op.Reads(sc, func(r isdl.Read) {
			if err == nil {
				err = g.emitRead(body, r)
			}
		})
		if err != nil {
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

// emitRead appends one read to out: a fixed element, or a decode-time
// index compiled over the argument array and wrapped like the
// interpreter's.
func (g *gen) emitRead(w *cw, r isdl.Read) error {
	sid := g.sid[r.Storage]
	if r.Index == nil {
		w.ln("out = addr(out, %d, %d)", sid, r.Elem)
		return nil
	}
	idx, err := g.expr(r.Index, r.Scope.(*scope))
	if err != nil {
		return err
	}
	if r.Depth > 0 {
		w.ln("out = addr(out, %d, int(%s)%%%d)", sid, idx, r.Depth)
	} else {
		w.ln("out = addr(out, %d, int(%s))", sid, idx)
	}
	return nil
}
