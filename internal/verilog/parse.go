package verilog

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bitvec"
)

// Parse reads one module in the synthesizable subset back into the AST. The
// Table 1 flow is: HGEN emits Verilog text → Parse → event-driven
// simulation, so the hardware model is exercised exactly as a Verilog
// simulator would see it, not through a private in-memory shortcut.
//
// Parse checks syntax only. It resolves no name and computes no width, so
// it accepts a module that reads an undeclared net or slices past a net's
// width; NewSim resolves the module and rejects such a model.
func Parse(src string) (*Module, error) {
	p := &vparser{}
	if err := p.tokenize(src); err != nil {
		return nil, err
	}
	return p.parseModule()
}

type vtok struct {
	text  string
	num   uint64
	width int // -1: not a number; 0: unsized decimal; >0: sized literal
	line  int
}

type vparser struct {
	toks []vtok
	pos  int
}

func (p *vparser) tokenize(src string) error {
	line := 1
	i := 0
	push := func(t vtok) { t.line = line; p.toks = append(p.toks, t) }
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '/' && i+1 < len(src) && src[i+1] == '/':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case isVWord(c):
			j := i
			for j < len(src) && isVWord(src[j]) {
				j++
			}
			word := src[i:j]
			if !isVDigit(c) {
				push(vtok{text: word, width: -1})
				i = j
				continue
			}
			// Number; possibly the width part of a sized literal.
			t := vtok{text: word}
			var err error
			if j < len(src) && src[j] == '\'' {
				k := j + 1
				for k < len(src) && isVWord(src[k]) {
					k++
				}
				t.text = src[i:k]
				t.num, t.width, err = sizedLiteral(word, src[j+1:k])
				j = k
			} else {
				t.num, err = parseUint(word, 10)
			}
			if err != nil {
				return fmt.Errorf("verilog line %d: %q: %v", line, t.text, err)
			}
			push(t)
			i = j
		default:
			// Multi-char operators.
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "==", "!=", "<<", ">>", "&&", "||":
				push(vtok{text: two, width: -1})
				i += 2
			default:
				push(vtok{text: string(c), width: -1})
				i++
			}
		}
	}
	return nil
}

func isVWord(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || isVDigit(c)
}

func isVDigit(c byte) bool { return c >= '0' && c <= '9' }

// sizedLiteral reads the width and the base-and-digits spec (after the
// quote) of a sized literal such as 8'hff. The subset keeps literals to 64
// bits; HGEN writes wider constants as concatenations.
func sizedLiteral(width, spec string) (uint64, int, error) {
	w, err := strconv.ParseUint(width, 10, 64)
	if err != nil || w == 0 || w > 64 {
		return 0, 0, fmt.Errorf("literal width must be 1 to 64 bits")
	}
	var base int
	switch {
	case strings.HasPrefix(spec, "h"):
		base = 16
	case strings.HasPrefix(spec, "b"):
		base = 2
	case strings.HasPrefix(spec, "d"):
		base = 10
	default:
		return 0, 0, fmt.Errorf("missing or unknown base")
	}
	v, err := parseUint(spec[1:], base)
	if err == nil && v>>w != 0 {
		err = fmt.Errorf("value does not fit in %d bits", w)
	}
	return v, int(w), err
}

// parseUint reads digits in the given base that fit 64 bits. ParseUint's
// errors are *strconv.NumError; only the cause is kept, since the caller
// quotes the token.
func parseUint(digits string, base int) (uint64, error) {
	v, err := strconv.ParseUint(digits, base, 64)
	if ne, ok := err.(*strconv.NumError); ok {
		return 0, ne.Err
	}
	return v, err
}

func (p *vparser) errf(format string, args ...interface{}) error {
	line := 0
	if p.pos < len(p.toks) {
		line = p.toks[p.pos].line
	} else if len(p.toks) > 0 {
		line = p.toks[len(p.toks)-1].line
	}
	return fmt.Errorf("verilog line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *vparser) peek() string {
	if p.pos >= len(p.toks) {
		return ""
	}
	return p.toks[p.pos].text
}

func (p *vparser) next() vtok {
	t := p.toks[p.pos]
	p.pos++
	return t
}

func (p *vparser) accept(text string) bool {
	if p.peek() == text {
		p.pos++
		return true
	}
	return false
}

func (p *vparser) expect(text string) error {
	if !p.accept(text) {
		return p.errf("expected %q, found %q", text, p.peek())
	}
	return nil
}

func (p *vparser) ident() (string, error) {
	if p.pos >= len(p.toks) || p.toks[p.pos].width != -1 || !isVWord(p.toks[p.pos].text[0]) || isVDigit(p.toks[p.pos].text[0]) {
		return "", p.errf("expected identifier, found %q", p.peek())
	}
	return p.next().text, nil
}

// number returns an unsized decimal value: a range bound, a memory bound
// or a static select, so it must fit 31 bits.
func (p *vparser) number() (int, error) {
	if p.pos >= len(p.toks) || p.toks[p.pos].width != 0 {
		return 0, p.errf("expected number, found %q", p.peek())
	}
	if p.toks[p.pos].num > math.MaxInt32 {
		return 0, p.errf("number %s out of range", p.peek())
	}
	return int(p.next().num), nil
}

// rangeDecl parses an optional "[h:0]" range and returns the width.
func (p *vparser) rangeDecl() (int, error) {
	if !p.accept("[") {
		return 1, nil
	}
	h, err := p.number()
	if err != nil {
		return 0, err
	}
	if err := p.expect(":"); err != nil {
		return 0, err
	}
	l, err := p.number()
	if err != nil {
		return 0, err
	}
	if err := p.expect("]"); err != nil {
		return 0, err
	}
	if l != 0 || h < 0 {
		return 0, p.errf("only [N:0] ranges are supported")
	}
	return h + 1, nil
}

func (p *vparser) parseModule() (*Module, error) {
	if err := p.expect("module"); err != nil {
		return nil, err
	}
	m := &Module{}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	m.Name = name
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var portNames []string
	for !p.accept(")") {
		n, err := p.ident()
		if err != nil {
			return nil, err
		}
		portNames = append(portNames, n)
		p.accept(",")
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	portDir := map[string]PortDir{}
	portWidth := map[string]int{}

	for {
		switch p.peek() {
		case "input", "output":
			dir := In
			if p.next().text == "output" {
				dir = Out
			}
			w, err := p.rangeDecl()
			if err != nil {
				return nil, err
			}
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			portDir[n] = dir
			portWidth[n] = w
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		case "wire", "reg":
			isReg := p.next().text == "reg"
			w, err := p.rangeDecl()
			if err != nil {
				return nil, err
			}
			n, err := p.ident()
			if err != nil {
				return nil, err
			}
			depth := 0
			if p.accept("[") {
				lo, err := p.number()
				if err != nil {
					return nil, err
				}
				if err := p.expect(":"); err != nil {
					return nil, err
				}
				hi, err := p.number()
				if err != nil {
					return nil, err
				}
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				if lo != 0 {
					return nil, p.errf("memory ranges must start at 0")
				}
				depth = hi + 1
			}
			m.Nets = append(m.Nets, Net{Name: n, Width: w, Reg: isReg, Depth: depth})
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		case "assign":
			p.next()
			lhs, err := p.parseLValue()
			if err != nil {
				return nil, err
			}
			if err := p.expect("="); err != nil {
				return nil, err
			}
			rhs, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			m.Assigns = append(m.Assigns, Assign{LHS: lhs, RHS: rhs})
		case "always":
			p.next()
			if err := p.expect("@"); err != nil {
				return nil, err
			}
			if err := p.expect("("); err != nil {
				return nil, err
			}
			if err := p.expect("posedge"); err != nil {
				return nil, err
			}
			clk, err := p.ident()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			stmts, err := p.parseBlock()
			if err != nil {
				return nil, err
			}
			m.Always = append(m.Always, Always{Clock: clk, Stmts: stmts})
		case "endmodule":
			p.next()
			for _, n := range portNames {
				d, ok := portDir[n]
				if !ok {
					return nil, fmt.Errorf("verilog: port %s has no direction declaration", n)
				}
				m.Ports = append(m.Ports, Port{Name: n, Dir: d, Width: portWidth[n]})
			}
			return m, nil
		default:
			return nil, p.errf("unexpected token %q", p.peek())
		}
	}
}

func (p *vparser) parseBlock() ([]Stmt, error) {
	if err := p.expect("begin"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept("end") {
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (p *vparser) parseStmt() (Stmt, error) {
	if p.accept("if") {
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseBlock()
		if err != nil {
			return nil, err
		}
		st := &If{Cond: cond, Then: then}
		if p.accept("else") {
			st.Else, err = p.parseBlock()
			if err != nil {
				return nil, err
			}
		}
		return st, nil
	}
	lhs, err := p.parseLValue()
	if err != nil {
		return nil, err
	}
	blocking := false
	switch {
	case p.accept("<="):
	case p.accept("="):
		blocking = true
	default:
		return nil, p.errf("expected <= or = in assignment")
	}
	rhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if blocking {
		return &BAssign{LHS: lhs, RHS: rhs}, nil
	}
	return &NBAssign{LHS: lhs, RHS: rhs}, nil
}

func (p *vparser) parseLValue() (LValue, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if !p.accept("[") {
		return &NetL{Name: name}, nil
	}
	// Static "h:l" or "n" is a slice; anything else is a memory index.
	if p.pos < len(p.toks) && p.toks[p.pos].width == 0 {
		save := p.pos
		first, err := p.number()
		if err != nil {
			return nil, err
		}
		if p.accept(":") {
			lo, err := p.number()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			return &SliceL{Name: name, Hi: first, Lo: lo}, nil
		}
		if p.accept("]") {
			return &SliceL{Name: name, Hi: first, Lo: first}, nil
		}
		p.pos = save
	}
	idx, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect("]"); err != nil {
		return nil, err
	}
	return &IndexL{Name: name, Idx: idx}, nil
}

// Expression parsing with conventional precedence; the ternary is lowest.
var vprec = map[string]int{
	"||": 1, "&&": 2, "|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6, "<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8, "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

func (p *vparser) parseExpr() (Expr, error) {
	e, err := p.parseBin(1)
	if err != nil {
		return nil, err
	}
	if p.accept("?") {
		a, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(":"); err != nil {
			return nil, err
		}
		b, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &Ternary{C: e, A: a, B: b}, nil
	}
	return e, nil
}

func (p *vparser) parseBin(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		op := p.peek()
		prec, ok := vprec[op]
		// "<=" inside an expression context is a comparison, but our
		// statement parser consumes it first, so no ambiguity here.
		if !ok || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBin(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &Binary{Op: op, X: lhs, Y: rhs}
	}
}

func (p *vparser) parseUnary() (Expr, error) {
	switch p.peek() {
	case "~", "!", "-", "|":
		op := p.next().text
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: op, X: x}, nil
	}
	return p.parsePostfix()
}

func (p *vparser) parsePostfix() (Expr, error) {
	e, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for p.accept("[") {
		if p.pos < len(p.toks) && p.toks[p.pos].width == 0 {
			save := p.pos
			first, err := p.number()
			if err != nil {
				return nil, err
			}
			if p.accept(":") {
				lo, err := p.number()
				if err != nil {
					return nil, err
				}
				if err := p.expect("]"); err != nil {
					return nil, err
				}
				e = &Slice{X: e, Hi: first, Lo: lo}
				continue
			}
			if p.accept("]") {
				// Single static index: a memory word or a bit-select,
				// told apart by NewSim.
				e = &Slice{X: e, Hi: first, Lo: first}
				continue
			}
			p.pos = save
		}
		idx, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		ref, ok := e.(*Ref)
		if !ok {
			return nil, p.errf("only a net can be memory-indexed")
		}
		e = &Index{Name: ref.Name, Idx: idx}
	}
	return e, nil
}

func (p *vparser) parsePrimary() (Expr, error) {
	switch {
	case p.accept("("):
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		return e, nil
	case p.accept("{"):
		c := &ConcatE{}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			c.Parts = append(c.Parts, e)
			if !p.accept(",") {
				break
			}
		}
		if err := p.expect("}"); err != nil {
			return nil, err
		}
		return c, nil
	case p.pos < len(p.toks) && p.toks[p.pos].width > 0:
		t := p.next()
		return &Const{Val: bitvec.FromUint64(t.width, t.num)}, nil
	case p.pos < len(p.toks) && p.toks[p.pos].width == 0:
		// Bare decimal: give it a self-determined 32-bit width.
		t := p.next()
		return &Const{Val: bitvec.FromUint64(32, t.num)}, nil
	default:
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &Ref{Name: name}, nil
	}
}
