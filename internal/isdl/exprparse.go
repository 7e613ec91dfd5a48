package isdl

import (
	"strings"

	"repro/internal/bitvec"
)

// RTL expression and statement parsing. The grammar is a conventional
// C-flavoured expression language over storage references, parameters and
// builtin functions; "<-" is the register-transfer assignment of the paper's
// RTL-type statements.

func (p *parser) parseExpr() (Expr, error) { return p.parseBin(1) }

func (p *parser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		if p.tok.Kind != lexPunct {
			return lhs, nil
		}
		def := lookupOp(FormBinary, p.tok.Text)
		if def == nil || def.Prec < minPrec {
			return lhs, nil
		}
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseBin(def.Prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{At: pos, Op: def.Name, Def: def, X: lhs, Y: rhs}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.tok.Kind != lexPunct {
		return p.parsePostfix()
	}
	def := lookupOp(FormUnary, p.tok.Text)
	if def == nil {
		return p.parsePostfix()
	}
	pos := p.tok.Pos
	if err := p.advance(); err != nil {
		return nil, err
	}
	x, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	// Fold "-literal" into a negative unsized literal so widths infer
	// naturally.
	if lit, ok := x.(*Lit); ok && !lit.Sized && def.Name == "-" {
		lit.Neg = !lit.Neg
		return lit, nil
	}
	return &Unary{At: pos, Op: def.Name, Def: def, X: x}, nil
}

func (p *parser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.atPunct("[") {
		pos := p.tok.Pos
		if err := p.advance(); err != nil {
			return nil, err
		}
		first, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if ok, err := p.accept(lexPunct, ":"); err != nil {
			return nil, err
		} else if ok {
			// Static bit slice: both bounds must be unsized literals.
			hiLit, okH := first.(*Lit)
			lo, err := p.expectInt()
			if err != nil {
				return nil, err
			}
			if !okH || hiLit.Sized {
				return nil, &lexError{pos, "bit-slice bounds must be plain decimal constants"}
			}
			if err := p.expectPunct("]"); err != nil {
				return nil, err
			}
			hi := int(hiLit.Dec)
			if hi < lo {
				return nil, &lexError{pos, "bit slice has hi < lo"}
			}
			e = &SliceE{At: pos, X: e, Hi: hi, Lo: lo}
			continue
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		ref, ok := e.(*Ref)
		if !ok {
			return nil, &lexError{pos, "only a storage name can be indexed"}
		}
		e = &Index{At: ref.At, Name: ref.Name, Idx: first}
	}
	return e, nil
}

func (p *parser) parsePrimary() (Expr, error) {
	pos := p.tok.Pos
	switch p.tok.Kind {
	case lexNumber:
		t := p.tok
		if err := p.advance(); err != nil {
			return nil, err
		}
		lit := &Lit{At: pos}
		if t.NumWidth > 0 {
			lit.Sized = true
			lit.Val = fromSized(t)
		} else {
			lit.Dec = t.NumVal
		}
		return lit, nil
	case lexIdent:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.atPunct("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			call := &Call{At: pos, Fn: name}
			if !p.atPunct(")") {
				for {
					arg, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, arg)
					if ok, err := p.accept(lexPunct, ","); err != nil {
						return nil, err
					} else if !ok {
						break
					}
				}
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return call, nil
		}
		return &Ref{At: pos, Name: name}, nil
	case lexPunct:
		if p.tok.Text == "(" {
			if err := p.advance(); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errf("expected expression, found %q", p.tok.Text)
}

// fromSized returns a sized literal's value. The token keeps the low 64
// bits; a wider literal's digits are read again from its text (n'h…,
// n'b…, 0x… or 0b…), which the lexer has already checked.
func fromSized(t lexToken) bitvec.Value {
	if t.NumWidth > 64 {
		k := max(strings.IndexByte(t.Text, '\''), 0)
		bits := 1
		if t.Text[k+1] == 'h' || t.Text[k+1] == 'x' {
			bits = 4
		}
		if _, words, _ := parseDigits(t.Text[k+2:], bits); words != nil {
			return bitvec.FromWords(t.NumWidth, words)
		}
	}
	return bitvec.FromUint64(t.NumWidth, t.NumVal)
}

// parseStmts parses statements until the closing brace (left for the caller
// to consume).
func (p *parser) parseStmts() ([]Stmt, error) {
	var out []Stmt
	for !p.atPunct("}") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	pos := p.tok.Pos
	if p.atIdent("if") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		then, err := p.parseStmts()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
		st := &If{At: pos, Cond: cond, Then: then}
		if ok, err := p.accept(lexIdent, "else"); err != nil {
			return nil, err
		} else if ok {
			if err := p.expectPunct("{"); err != nil {
				return nil, err
			}
			if st.Else, err = p.parseStmts(); err != nil {
				return nil, err
			}
			if err := p.expectPunct("}"); err != nil {
				return nil, err
			}
		}
		return st, nil
	}

	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if ok, err := p.accept(lexPunct, "<-"); err != nil {
		return nil, err
	} else if ok {
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
		return &Assign{At: pos, LHS: lhs, RHS: rhs}, nil
	}
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}
	if _, ok := lhs.(*Call); !ok {
		return nil, &lexError{pos, "expression statement must be a builtin call (push/pop)"}
	}
	return &ExprStmt{At: pos, X: lhs}, nil
}
