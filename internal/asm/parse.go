package asm

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// This file parses assembly text. The operand grammar is defined entirely by
// the ISDL description: operation syntax elements, token forms, and
// non-terminal options (tried in order, with backtracking). VLIW slots are
// separated by "||"; unmentioned fields are filled with the field's nop.
//
// Directives:
//
//	label:              define a symbol at the current address
//	.org N              set the location counter
//	.data STG BASE v…   initialize a data storage
//	.word v…            emit raw instruction words

// Assemble assembles source text into a Program. Assembly is two-pass so
// forward label references work.
func Assemble(d *isdl.Description, src string) (*Program, error) {
	a := &assembler{d: d}
	// Pass 1: compute label addresses.
	if _, err := a.run(src, nil, true); err != nil {
		return nil, err
	}
	syms := a.symbols
	// Pass 2: emit.
	p, err := a.run(src, syms, false)
	if err != nil {
		return nil, err
	}
	return p, nil
}

type assembler struct {
	d       *isdl.Description
	symbols map[string]int
}

func (a *assembler) run(src string, syms map[string]int, sizing bool) (*Program, error) {
	p := &Program{
		Desc:    a.d,
		Symbols: map[string]int{},
		Source:  map[int]string{},
	}
	a.symbols = p.Symbols
	lc := 0
	org := -1
	emitted := false

	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexAny(line, ";"); i >= 0 {
			line = line[:i]
		}
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fail := func(format string, args ...interface{}) error {
			return fmt.Errorf("line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}

		// Label definitions (possibly several) at the start of the line.
		for {
			name, rest, ok := splitLabel(line)
			if !ok {
				break
			}
			if _, dup := p.Symbols[name]; dup {
				return nil, fail("duplicate label %s", name)
			}
			p.Symbols[name] = lc
			line = rest
			if line == "" {
				break
			}
		}
		if line == "" {
			continue
		}

		sc, err := scanLine(line)
		if err != nil {
			return nil, fail("%v", err)
		}

		switch {
		case sc.peekPunct("."):
			// Directive.
			sc.next()
			dir, ok := sc.ident()
			if !ok {
				return nil, fail("expected directive name after '.'")
			}
			switch dir {
			case "org":
				n, ok := sc.number()
				if !ok || n < 0 {
					return nil, fail(".org needs a non-negative address")
				}
				if emitted {
					return nil, fail(".org must precede instructions")
				}
				lc = int(n)
				org = int(n)
			case "data":
				stg, ok := sc.ident()
				if !ok {
					return nil, fail(".data needs a storage name")
				}
				st, okS := a.d.StorageByName[stg]
				if !okS || !st.Kind.Addressed() {
					return nil, fail(".data target %s is not addressed storage", stg)
				}
				base, ok := sc.number()
				if !ok || base < 0 {
					return nil, fail(".data needs a base address")
				}
				var vals []bitvec.Value
				for !sc.eol() {
					v, ok := sc.number()
					if !ok {
						return nil, fail(".data values must be numbers")
					}
					vals = append(vals, bitvec.FromInt64(st.Width, v))
					sc.acceptPunct(",")
				}
				if int(base)+len(vals) > st.Depth {
					return nil, fail(".data overflows %s (depth %d)", stg, st.Depth)
				}
				for _, prev := range p.Data {
					lo := max(prev.Base, int(base))
					if prev.Storage == stg && lo < min(prev.Base+len(prev.Values), int(base)+len(vals)) {
						return nil, fail(".data initializes %s[%d] twice", stg, lo)
					}
				}
				p.Data = append(p.Data, DataInit{Storage: stg, Base: int(base), Values: vals})
			case "word":
				for !sc.eol() {
					v, ok := sc.number()
					if !ok {
						return nil, fail(".word values must be numbers")
					}
					p.Words = append(p.Words, bitvec.FromInt64(a.d.WordWidth, v))
					p.Source[lc] = line
					lc++
					emitted = true
					sc.acceptPunct(",")
				}
			default:
				return nil, fail("unknown directive .%s", dir)
			}
			if !sc.eol() {
				return nil, fail("trailing input %q", sc.rest())
			}
			continue
		}

		words, err := a.assembleInstruction(sc, syms, sizing)
		if err != nil {
			return nil, fail("%v", err)
		}
		p.Source[lc] = line
		p.Words = append(p.Words, words...)
		lc += len(words)
		emitted = true
	}
	if org >= 0 {
		p.Base = org
	}
	return p, nil
}

func splitLabel(line string) (name, rest string, ok bool) {
	i := 0
	for i < len(line) && (isWordChar(line[i])) {
		i++
	}
	if i == 0 || i >= len(line) || line[i] != ':' || isDigitB(line[0]) {
		return "", "", false
	}
	return line[:i], strings.TrimSpace(line[i+1:]), true
}

// assembleInstruction parses "opspec (|| opspec)*" and encodes it.
func (a *assembler) assembleInstruction(sc *lineScan, syms map[string]int, sizing bool) ([]bitvec.Value, error) {
	specs := make([]*OpSpec, len(a.d.Fields))
	for {
		spec, err := a.parseOpSpec(sc, syms, sizing)
		if err != nil {
			return nil, err
		}
		idx := spec.Op.Field.Index
		if specs[idx] != nil {
			return nil, fmt.Errorf("two operations for field %s", spec.Op.Field.Name)
		}
		specs[idx] = spec
		if !sc.acceptPunct("||") {
			break
		}
	}
	if !sc.eol() {
		return nil, fmt.Errorf("trailing input %q", sc.rest())
	}
	for i, f := range a.d.Fields {
		if specs[i] == nil {
			nop, err := NopSpec(f)
			if err != nil {
				return nil, err
			}
			specs[i] = nop
		}
	}
	return EncodeInstruction(a.d, specs)
}

// parseOpSpec parses one "[field.]mnemonic operands" slot.
func (a *assembler) parseOpSpec(sc *lineScan, syms map[string]int, sizing bool) (*OpSpec, error) {
	name, ok := sc.ident()
	if !ok {
		return nil, fmt.Errorf("expected operation mnemonic, found %q", sc.rest())
	}
	var op *isdl.Operation
	if sc.acceptPunct(".") {
		f := a.d.FieldByName(name)
		if f == nil {
			return nil, fmt.Errorf("unknown field %s", name)
		}
		opName, ok := sc.ident()
		if !ok {
			return nil, fmt.Errorf("expected operation after %s.", name)
		}
		op = f.ByName[opName]
		if op == nil {
			return nil, fmt.Errorf("field %s has no operation %s", f.Name, opName)
		}
	} else {
		var matches []*isdl.Operation
		for _, f := range a.d.Fields {
			if o, ok := f.ByName[name]; ok {
				matches = append(matches, o)
			}
		}
		switch len(matches) {
		case 0:
			return nil, fmt.Errorf("unknown operation %s", name)
		case 1:
			op = matches[0]
		default:
			return nil, fmt.Errorf("operation %s exists in several fields; qualify it as FIELD.%s", name, name)
		}
	}

	args, err := a.matchSyntax(sc, op.Syntax, op.Params, syms, sizing)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", op.QualName(), err)
	}
	return &OpSpec{Op: op, Args: args}, nil
}

// matchSyntax matches syntax elements in order, producing one Arg per
// parameter.
func (a *assembler) matchSyntax(sc *lineScan, syn []isdl.SynElem, params []*isdl.Param, syms map[string]int, sizing bool) ([]Arg, error) {
	args := make([]Arg, len(params))
	for _, el := range syn {
		if el.Lit != "" {
			if !sc.acceptLit(el.Lit) {
				return nil, fmt.Errorf("expected %q, found %q", el.Lit, sc.rest())
			}
			continue
		}
		arg, err := a.matchParam(sc, params[el.Param], syms, sizing)
		if err != nil {
			return nil, err
		}
		args[el.Param] = arg
	}
	return args, nil
}

func (a *assembler) matchParam(sc *lineScan, p *isdl.Param, syms map[string]int, sizing bool) (Arg, error) {
	if p.Token != nil {
		return a.matchToken(sc, p.Token, syms, sizing)
	}
	// Non-terminal: try every option with backtracking and keep the one
	// that consumes the most input (so "@A0+" prefers the post-increment
	// option over its "@A0" prefix).
	var firstErr error
	best := Arg{}
	bestEnd := -1
	save := sc.save()
	for _, opt := range p.NT.Options {
		sc.restore(save)
		sub, err := a.matchSyntax(sc, opt.Syntax, opt.Params, syms, sizing)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if end := sc.save(); end > bestEnd {
			best = Arg{Option: opt, Sub: sub}
			bestEnd = end
		}
	}
	if bestEnd < 0 {
		sc.restore(save)
		return Arg{}, fmt.Errorf("no option of %s matches %q: %v", p.NT.Name, sc.rest(), firstErr)
	}
	sc.restore(bestEnd)
	return best, nil
}

func (a *assembler) matchToken(sc *lineScan, t *isdl.Token, syms map[string]int, sizing bool) (Arg, error) {
	switch t.Kind {
	case isdl.TokRegSet, isdl.TokEnum:
		save := sc.save()
		name, ok := sc.ident()
		if !ok {
			return Arg{}, fmt.Errorf("expected %s, found %q", t.Name, sc.rest())
		}
		v, ok := t.ValueFor(name)
		if !ok {
			sc.restore(save)
			return Arg{}, fmt.Errorf("%q is not a valid %s", name, t.Name)
		}
		return Arg{Value: v}, nil
	case isdl.TokImm:
		save := sc.save()
		if n, ok := sc.number(); ok {
			if !ImmFits(t, n) {
				sc.restore(save)
				return Arg{}, fmt.Errorf("immediate %d does not fit %s (%s %d bits)", n, t.Name, signedness(t), t.RetWidth)
			}
			return Arg{Value: bitvec.FromInt64(t.RetWidth, n)}, nil
		}
		if name, ok := sc.ident(); ok {
			addr, found := a.symbols[name]
			if syms != nil {
				addr, found = syms[name]
			}
			if !found {
				if sizing {
					return Arg{Value: bitvec.New(t.RetWidth)}, nil
				}
				sc.restore(save)
				return Arg{}, fmt.Errorf("undefined symbol %s", name)
			}
			if !ImmFits(t, int64(addr)) {
				sc.restore(save)
				return Arg{}, fmt.Errorf("symbol %s (=%d) does not fit %s", name, addr, t.Name)
			}
			return Arg{Value: bitvec.FromInt64(t.RetWidth, int64(addr))}, nil
		}
		return Arg{}, fmt.Errorf("expected immediate, found %q", sc.rest())
	}
	return Arg{}, fmt.Errorf("unsupported token kind")
}

func signedness(t *isdl.Token) string {
	if t.Signed {
		return "signed"
	}
	return "unsigned"
}

// ------------------------------------------------------------- scanner --

type atok struct {
	text  string
	num   int64
	isNum bool
}

type lineScan struct {
	toks []atok
	pos  int
	line string
}

func isWordChar(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func isDigitB(c byte) bool { return c >= '0' && c <= '9' }

func scanLine(line string) (*lineScan, error) {
	sc := &lineScan{line: line}
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == ' ' || c == '\t':
			i++
		case isDigitB(c):
			j := i
			base := 10
			if c == '0' && j+1 < len(line) && (line[j+1] == 'x' || line[j+1] == 'X') {
				base = 16
				j += 2
			}
			start := j
			for j < len(line) && isHexDigit(line[j]) {
				j++
			}
			digits := line[start:j]
			if base == 10 {
				// Re-scan decimal strictly.
				j = i
				for j < len(line) && isDigitB(line[j]) {
					j++
				}
				digits = line[i:j]
			}
			var v int64
			for _, ch := range digits {
				d := hexVal(byte(ch))
				if base == 10 && d > 9 {
					return nil, fmt.Errorf("invalid decimal digit %q", ch)
				}
				v = v*int64(base) + int64(d)
			}
			sc.toks = append(sc.toks, atok{text: line[i:j], num: v, isNum: true})
			i = j
		case isWordChar(c):
			j := i
			for j < len(line) && isWordChar(line[j]) {
				j++
			}
			sc.toks = append(sc.toks, atok{text: line[i:j]})
			i = j
		case c == '|' && i+1 < len(line) && line[i+1] == '|':
			sc.toks = append(sc.toks, atok{text: "||"})
			i += 2
		default:
			sc.toks = append(sc.toks, atok{text: string(c)})
			i++
		}
	}
	return sc, nil
}

func isHexDigit(c byte) bool {
	return isDigitB(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}

func (sc *lineScan) save() int     { return sc.pos }
func (sc *lineScan) restore(p int) { sc.pos = p }
func (sc *lineScan) eol() bool     { return sc.pos >= len(sc.toks) }
func (sc *lineScan) peek() atok    { return sc.toks[sc.pos] }
func (sc *lineScan) next() atok    { t := sc.toks[sc.pos]; sc.pos++; return t }
func (sc *lineScan) peekPunct(s string) bool {
	return !sc.eol() && !sc.peek().isNum && sc.peek().text == s
}

func (sc *lineScan) acceptPunct(s string) bool {
	if sc.peekPunct(s) {
		sc.pos++
		return true
	}
	return false
}

// acceptLit matches a literal syntax element, which may span several scanner
// tokens (e.g. "]+").
func (sc *lineScan) acceptLit(lit string) bool {
	save := sc.pos
	rest := lit
	for rest != "" {
		if sc.eol() {
			sc.pos = save
			return false
		}
		t := sc.next().text
		if !strings.HasPrefix(rest, t) {
			sc.pos = save
			return false
		}
		rest = rest[len(t):]
	}
	return true
}

func (sc *lineScan) ident() (string, bool) {
	if sc.eol() || sc.peek().isNum || !isWordChar(sc.peek().text[0]) {
		return "", false
	}
	return sc.next().text, true
}

// number parses an optionally negated numeric token.
func (sc *lineScan) number() (int64, bool) {
	save := sc.pos
	neg := sc.acceptPunct("-")
	if sc.eol() || !sc.peek().isNum {
		sc.pos = save
		return 0, false
	}
	v := sc.next().num
	if neg {
		v = -v
	}
	return v, true
}

// rest renders the unconsumed tail for diagnostics.
func (sc *lineScan) rest() string {
	var parts []string
	for _, t := range sc.toks[sc.pos:] {
		parts = append(parts, t.text)
	}
	return strings.Join(parts, " ")
}
