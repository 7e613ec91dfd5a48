package isdl

// Derive returns a new description: a private copy of d with edit applied
// to it (a nil edit changes nothing), checked by the same semantic pass as
// Parse. It never writes to d, so any number of goroutines may derive from
// one description at once while nothing else changes it.
//
// The copy holds what Parse(Format(d)) would build, source positions
// aside. It copies d's syntax and leaves zero every field the semantic
// pass sets: name resolutions and widths of expressions, Call.Def,
// Param.Token and Param.NT, non-terminals' value widths and lvalue flags,
// the signatures of options and operations, aliases' storage and
// constraint atoms' resolutions. Literals the pass sized are copied as
// they are, sized, which is how Format prints them.
//
// The copy shares with d only what neither an edit nor the semantic pass
// ever writes: the Tokens and Info maps, the Syntax and Encode slices of
// operations and options, and the operator-table entries. An edit that
// changes one of those must replace it, not write into it.
func Derive(d *Description, edit func(*Description)) (*Description, error) {
	c := copyDescription(d)
	if edit != nil {
		edit(c)
	}
	if err := analyze(c); err != nil {
		return nil, err
	}
	return c, nil
}

func copyDescription(d *Description) *Description {
	c := &Description{
		Name:          d.Name,
		WordWidth:     d.WordWidth,
		Tokens:        d.Tokens,
		NonTerminals:  make(map[string]*NonTerminal, len(d.NonTerminals)),
		Storage:       make([]*Storage, len(d.Storage)),
		StorageByName: make(map[string]*Storage, len(d.Storage)),
		Aliases:       make([]*Alias, len(d.Aliases)),
		Fields:        make([]*Field, len(d.Fields)),
		Constraints:   make([]*Constraint, len(d.Constraints)),
		Info:          d.Info,
	}
	for name, nt := range d.NonTerminals {
		n := &NonTerminal{Name: nt.Name, Pos: nt.Pos, RetWidth: nt.RetWidth, Options: make([]*Option, len(nt.Options))}
		for i, o := range nt.Options {
			n.Options[i] = &Option{
				Index: o.Index, Pos: o.Pos, Syntax: o.Syntax, Params: copyParams(o.Params), Encode: o.Encode,
				Value: copyExpr(o.Value), SideEffect: copyStmts(o.SideEffect), Costs: o.Costs, Timing: o.Timing,
			}
		}
		c.NonTerminals[name] = n
	}
	for i, st := range d.Storage {
		s := *st
		c.Storage[i] = &s
		c.StorageByName[s.Name] = &s
	}
	for i, a := range d.Aliases {
		al := *a
		al.Storage = nil
		c.Aliases[i] = &al
	}
	for i, f := range d.Fields {
		nf := &Field{Name: f.Name, Pos: f.Pos, Index: f.Index, Ops: make([]*Operation, len(f.Ops)), ByName: make(map[string]*Operation, len(f.Ops))}
		for j, op := range f.Ops {
			o := &Operation{
				Name: op.Name, Pos: op.Pos, Field: nf, Syntax: op.Syntax, Params: copyParams(op.Params), Encode: op.Encode,
				Action: copyStmts(op.Action), SideEffect: copyStmts(op.SideEffect), Costs: op.Costs, Timing: op.Timing,
			}
			nf.Ops[j] = o
			nf.ByName[o.Name] = o
		}
		c.Fields[i] = nf
	}
	for i, k := range d.Constraints {
		c.Constraints[i] = &Constraint{Pos: k.Pos, Expr: copyCExpr(k.Expr), Text: k.Text}
	}
	return c
}

func copyParams(ps []*Param) []*Param {
	if ps == nil {
		return nil
	}
	out := make([]*Param, len(ps))
	for i, p := range ps {
		out[i] = &Param{Name: p.Name, TypeName: p.TypeName, Pos: p.Pos}
	}
	return out
}

func copyStmts(list []Stmt) []Stmt {
	if list == nil {
		return nil
	}
	out := make([]Stmt, len(list))
	for i, s := range list {
		switch s := s.(type) {
		case *Assign:
			out[i] = &Assign{At: s.At, LHS: copyExpr(s.LHS), RHS: copyExpr(s.RHS)}
		case *If:
			out[i] = &If{At: s.At, Cond: copyExpr(s.Cond), Then: copyStmts(s.Then), Else: copyStmts(s.Else)}
		case *ExprStmt:
			out[i] = &ExprStmt{At: s.At, X: copyExpr(s.X)}
		}
	}
	return out
}

func copyExpr(e Expr) Expr {
	switch e := e.(type) {
	case *Lit:
		l := *e
		return &l
	case *Ref:
		return &Ref{At: e.At, Name: e.Name}
	case *Index:
		return &Index{At: e.At, Name: e.Name, Idx: copyExpr(e.Idx)}
	case *SliceE:
		return &SliceE{At: e.At, X: copyExpr(e.X), Hi: e.Hi, Lo: e.Lo}
	case *Unary:
		return &Unary{At: e.At, Op: e.Op, Def: e.Def, X: copyExpr(e.X)}
	case *Binary:
		return &Binary{At: e.At, Op: e.Op, Def: e.Def, X: copyExpr(e.X), Y: copyExpr(e.Y)}
	case *Call:
		c := &Call{At: e.At, Fn: e.Fn}
		if e.Args != nil {
			c.Args = make([]Expr, len(e.Args))
			for i, a := range e.Args {
				c.Args[i] = copyExpr(a)
			}
		}
		return c
	}
	return e // nil: an option without a Value, which the semantic pass rejects
}

func copyCExpr(e CExpr) CExpr {
	switch e := e.(type) {
	case *CAtom:
		return &CAtom{Field: e.Field, Op: e.Op}
	case *CNot:
		return &CNot{X: copyCExpr(e.X)}
	case *CBin:
		return &CBin{Op: e.Op, X: copyCExpr(e.X), Y: copyCExpr(e.Y)}
	}
	return e
}
