package isdl

import (
	"fmt"

	"repro/internal/bitvec"
)

// Parse parses and semantically validates an ISDL description. On success
// the returned Description is fully resolved: parameter types, storage
// references, expression widths and constraint atoms are all bound.
func Parse(src string) (*Description, error) {
	p := &parser{lx: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	d, err := p.parseDescription()
	if err != nil {
		return nil, err
	}
	if err := analyze(d); err != nil {
		return nil, err
	}
	return d, nil
}

type parser struct {
	lx  *lexer
	tok lexToken
}

func (p *parser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...interface{}) error {
	return &lexError{p.tok.Pos, fmt.Sprintf(format, args...)}
}

func (p *parser) at(kind lexKind, text string) bool {
	return p.tok.Kind == kind && (text == "" || p.tok.Text == text)
}

func (p *parser) atIdent(text string) bool { return p.at(lexIdent, text) }
func (p *parser) atPunct(text string) bool { return p.at(lexPunct, text) }

// accept consumes the current token if it matches.
func (p *parser) accept(kind lexKind, text string) (bool, error) {
	if p.at(kind, text) {
		return true, p.advance()
	}
	return false, nil
}

// expect consumes a required token.
func (p *parser) expect(kind lexKind, text string) (lexToken, error) {
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = map[lexKind]string{lexIdent: "identifier", lexNumber: "number", lexString: "string"}[kind]
		}
		return lexToken{}, p.errf("expected %q, found %q", want, p.tok.Text)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) expectIdent() (lexToken, error) { return p.expect(lexIdent, "") }

func (p *parser) expectNumber() (lexToken, error) {
	if p.tok.Kind != lexNumber {
		return lexToken{}, p.errf("expected number, found %q", p.tok.Text)
	}
	t := p.tok
	return t, p.advance()
}

// expectInt consumes an unsized non-negative decimal and returns it as int.
func (p *parser) expectInt() (int, error) {
	t, err := p.expectNumber()
	if err != nil {
		return 0, err
	}
	if t.NumVal > 1<<31 {
		return 0, &lexError{t.Pos, "number out of range"}
	}
	return int(t.NumVal), nil
}

func (p *parser) expectPunct(text string) error {
	_, err := p.expect(lexPunct, text)
	return err
}

func (p *parser) parseDescription() (*Description, error) {
	d := &Description{
		Tokens:        map[string]*Token{},
		NonTerminals:  map[string]*NonTerminal{},
		StorageByName: map[string]*Storage{},
		Info:          map[string]string{},
	}

	if ok, err := p.accept(lexIdent, "Machine"); err != nil {
		return nil, err
	} else if ok {
		t, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		d.Name = t.Text
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}

	if _, err := p.expect(lexIdent, "Format"); err != nil {
		return nil, err
	}
	w, err := p.expectInt()
	if err != nil {
		return nil, err
	}
	if w <= 0 || w > 1024 {
		return nil, p.errf("instruction word width %d out of range", w)
	}
	d.WordWidth = w
	if err := p.expectPunct(";"); err != nil {
		return nil, err
	}

	for !p.at(lexEOF, "") {
		if _, err := p.expect(lexIdent, "Section"); err != nil {
			return nil, err
		}
		name, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		switch name.Text {
		case "Global_Definitions":
			err = p.parseGlobalDefs(d)
		case "Storage":
			err = p.parseStorage(d)
		case "Instruction_Set":
			err = p.parseInstructionSet(d)
		case "Constraints":
			err = p.parseConstraints(d)
		case "Architectural_Information":
			err = p.parseInfo(d)
		default:
			return nil, &lexError{name.Pos, fmt.Sprintf("unknown section %q", name.Text)}
		}
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}

// atSectionEnd reports whether the current token starts a new section or is
// EOF.
func (p *parser) atSectionEnd() bool {
	return p.at(lexEOF, "") || p.atIdent("Section")
}

func (p *parser) parseGlobalDefs(d *Description) error {
	for !p.atSectionEnd() {
		switch {
		case p.atIdent("Token"):
			if err := p.parseToken(d); err != nil {
				return err
			}
		case p.atIdent("Non_Terminal"):
			if err := p.parseNonTerminal(d); err != nil {
				return err
			}
		default:
			return p.errf("expected Token or Non_Terminal, found %q", p.tok.Text)
		}
	}
	return nil
}

func (p *parser) parseToken(d *Description) error {
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // Token
		return err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	t := &Token{Name: nameTok.Text, Pos: pos}
	switch {
	case p.tok.Kind == lexString:
		// Register-set form: Token GPR "R" [0..15];
		t.Kind = TokRegSet
		t.Prefix = p.tok.Text
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectPunct("["); err != nil {
			return err
		}
		if t.Lo, err = p.expectInt(); err != nil {
			return err
		}
		if err := p.expectPunct(".."); err != nil {
			return err
		}
		if t.Hi, err = p.expectInt(); err != nil {
			return err
		}
		if err := p.expectPunct("]"); err != nil {
			return err
		}
		if t.Hi < t.Lo {
			return &lexError{pos, fmt.Sprintf("token %s: empty range [%d..%d]", t.Name, t.Lo, t.Hi)}
		}
		t.RetWidth = bitsFor(uint64(t.Hi))
	case p.atIdent("enum"):
		t.Kind = TokEnum
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectPunct("{"); err != nil {
			return err
		}
		var maxV uint64
		for {
			s, err := p.expect(lexString, "")
			if err != nil {
				return err
			}
			if err := p.expectPunct("="); err != nil {
				return err
			}
			n, err := p.expectNumber()
			if err != nil {
				return err
			}
			t.EnumNames = append(t.EnumNames, s.Text)
			t.EnumValues = append(t.EnumValues, n.NumVal)
			if n.NumVal > maxV {
				maxV = n.NumVal
			}
			if ok, err := p.accept(lexPunct, ","); err != nil {
				return err
			} else if !ok {
				break
			}
		}
		if err := p.expectPunct("}"); err != nil {
			return err
		}
		t.RetWidth = bitsFor(maxV)
	case p.atIdent("imm"):
		t.Kind = TokImm
		if err := p.advance(); err != nil {
			return err
		}
		switch {
		case p.atIdent("signed"):
			t.Signed = true
		case p.atIdent("unsigned"):
			t.Signed = false
		default:
			return p.errf("expected signed or unsigned, found %q", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return err
		}
		if t.RetWidth, err = p.expectInt(); err != nil {
			return err
		}
		if t.RetWidth <= 0 || t.RetWidth > 64 {
			return &lexError{pos, fmt.Sprintf("token %s: immediate width %d out of range", t.Name, t.RetWidth)}
		}
	default:
		return p.errf("expected token specification, found %q", p.tok.Text)
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if _, dup := d.Tokens[t.Name]; dup {
		return &lexError{pos, fmt.Sprintf("duplicate token %s", t.Name)}
	}
	d.Tokens[t.Name] = t
	return nil
}

// bitsFor returns the bits needed to represent max (at least 1).
func bitsFor(max uint64) int {
	n := 1
	for max > 1 {
		max >>= 1
		n++
	}
	return n
}

func (p *parser) parseNonTerminal(d *Description) error {
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // Non_Terminal
		return err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	nt := &NonTerminal{Name: nameTok.Text, Pos: pos}
	if _, err := p.expect(lexIdent, "width"); err != nil {
		return err
	}
	if nt.RetWidth, err = p.expectInt(); err != nil {
		return err
	}
	if err := p.expectPunct(":"); err != nil {
		return err
	}
	for p.atIdent("option") {
		opt, err := p.parseOption(len(nt.Options))
		if err != nil {
			return err
		}
		nt.Options = append(nt.Options, opt)
	}
	if len(nt.Options) == 0 {
		return &lexError{pos, fmt.Sprintf("non-terminal %s has no options", nt.Name)}
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	if _, dup := d.NonTerminals[nt.Name]; dup {
		return &lexError{pos, fmt.Sprintf("duplicate non-terminal %s", nt.Name)}
	}
	d.NonTerminals[nt.Name] = nt
	return nil
}

// parseSyntax parses a sequence of syntax elements: string literals, ","
// sugar, and parenthesized parameter declarations. It stops at the first
// token that cannot start a syntax element.
func (p *parser) parseSyntax() ([]SynElem, []*Param, error) {
	var syn []SynElem
	var params []*Param
	for {
		switch {
		case p.tok.Kind == lexString:
			syn = append(syn, SynElem{Lit: p.tok.Text})
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		case p.atPunct(","):
			syn = append(syn, SynElem{Lit: ","})
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
		case p.atPunct("("):
			if err := p.advance(); err != nil {
				return nil, nil, err
			}
			nameTok, err := p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectPunct(":"); err != nil {
				return nil, nil, err
			}
			typeTok, err := p.expectIdent()
			if err != nil {
				return nil, nil, err
			}
			if err := p.expectPunct(")"); err != nil {
				return nil, nil, err
			}
			syn = append(syn, SynElem{Param: len(params)})
			params = append(params, &Param{Name: nameTok.Text, TypeName: typeTok.Text, Pos: nameTok.Pos})
		default:
			return syn, params, nil
		}
	}
}

// partNames are the block keywords of an operation/option body.
var partNames = map[string]bool{
	"Encode": true, "Action": true, "SideEffect": true,
	"Cost": true, "Timing": true, "Value": true,
}

func (p *parser) parseOption(index int) (*Option, error) {
	opt := &Option{Index: index, Pos: p.tok.Pos, Costs: Costs{Size: 0}, Timing: Timing{}}
	if err := p.advance(); err != nil { // option
		return nil, err
	}
	var err error
	opt.Syntax, opt.Params, err = p.parseSyntax()
	if err != nil {
		return nil, err
	}
	for p.tok.Kind == lexIdent && partNames[p.tok.Text] {
		part := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		switch part {
		case "Encode":
			if opt.Encode, err = p.parseBitAssigns("R", opt.Params); err != nil {
				return nil, err
			}
		case "Value":
			if opt.Value, err = p.parseExpr(); err != nil {
				return nil, err
			}
		case "SideEffect":
			if opt.SideEffect, err = p.parseStmts(); err != nil {
				return nil, err
			}
		case "Cost":
			if err := p.parseCosts(&opt.Costs); err != nil {
				return nil, err
			}
		case "Timing":
			if err := p.parseTiming(&opt.Timing); err != nil {
				return nil, err
			}
		case "Action":
			return nil, p.errf("options use Value and SideEffect, not Action")
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
	}
	return opt, nil
}

// parseBitAssigns parses "dst[h:l] = src;" lines until the closing brace.
// dstName is "I" for operations and "R" for option return values.
func (p *parser) parseBitAssigns(dstName string, params []*Param) ([]*BitAssign, error) {
	var out []*BitAssign
	for !p.atPunct("}") {
		pos := p.tok.Pos
		dst, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if dst.Text != dstName {
			return nil, &lexError{dst.Pos, fmt.Sprintf("bitfield destination must be %s, found %s", dstName, dst.Text)}
		}
		if err := p.expectPunct("["); err != nil {
			return nil, err
		}
		hi, err := p.expectInt()
		if err != nil {
			return nil, err
		}
		lo := hi
		if ok, err := p.accept(lexPunct, ":"); err != nil {
			return nil, err
		} else if ok {
			if lo, err = p.expectInt(); err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct("]"); err != nil {
			return nil, err
		}
		if hi < lo {
			return nil, &lexError{pos, fmt.Sprintf("bitfield [%d:%d] has hi < lo", hi, lo)}
		}
		if err := p.expectPunct("="); err != nil {
			return nil, err
		}
		ba := &BitAssign{Pos: pos, Hi: hi, Lo: lo, PHi: -1, PLo: -1}
		switch {
		case p.tok.Kind == lexNumber:
			if p.tok.NumWidth == 0 {
				return nil, p.errf("bitfield constants must be sized (use 0b… or n'h…)")
			}
			if p.tok.NumWidth != ba.Width() {
				return nil, p.errf("constant width %d does not match bitfield width %d", p.tok.NumWidth, ba.Width())
			}
			ba.Const = bitvec.FromUint64(p.tok.NumWidth, p.tok.NumVal)
			ba.ConstSet = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		case p.tok.Kind == lexIdent:
			name := p.tok.Text
			idx := -1
			for i, prm := range params {
				if prm.Name == name {
					idx = i
					break
				}
			}
			if idx < 0 {
				return nil, p.errf("bitfield source %q is not a parameter", name)
			}
			ba.Param = idx
			if err := p.advance(); err != nil {
				return nil, err
			}
			if ok, err := p.accept(lexPunct, "["); err != nil {
				return nil, err
			} else if ok {
				if ba.PHi, err = p.expectInt(); err != nil {
					return nil, err
				}
				if err := p.expectPunct(":"); err != nil {
					return nil, err
				}
				if ba.PLo, err = p.expectInt(); err != nil {
					return nil, err
				}
				if err := p.expectPunct("]"); err != nil {
					return nil, err
				}
				if ba.PHi < ba.PLo {
					return nil, &lexError{pos, "parameter slice has hi < lo"}
				}
			}
		default:
			return nil, p.errf("expected constant or parameter, found %q", p.tok.Text)
		}
		out = append(out, ba)
		if err := p.expectPunct(";"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (p *parser) parseCosts(c *Costs) error {
	return p.parseKeyVals(map[string]*int{"Cycle": &c.Cycle, "Stall": &c.Stall, "Size": &c.Size})
}

func (p *parser) parseTiming(t *Timing) error {
	return p.parseKeyVals(map[string]*int{"Latency": &t.Latency, "Usage": &t.Usage})
}

func (p *parser) parseKeyVals(dst map[string]*int) error {
	for !p.atPunct("}") {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		slot, ok := dst[key.Text]
		if !ok {
			return &lexError{key.Pos, fmt.Sprintf("unknown cost/timing parameter %q", key.Text)}
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		v, err := p.expectInt()
		if err != nil {
			return err
		}
		*slot = v
		if err := p.expectPunct(";"); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseStorage(d *Description) error {
	kinds := map[string]StorageKind{
		"InstructionMemory": StInstructionMemory,
		"DataMemory":        StDataMemory,
		"RegFile":           StRegFile,
		"Register":          StRegister,
		"ControlRegister":   StControlRegister,
		"MemoryMappedIO":    StMemoryMappedIO,
		"ProgramCounter":    StProgramCounter,
		"Stack":             StStack,
	}
	for !p.atSectionEnd() {
		if p.atIdent("Alias") {
			if err := p.parseAlias(d); err != nil {
				return err
			}
			continue
		}
		kindTok, err := p.expectIdent()
		if err != nil {
			return err
		}
		kind, ok := kinds[kindTok.Text]
		if !ok {
			return &lexError{kindTok.Pos, fmt.Sprintf("unknown storage kind %q", kindTok.Text)}
		}
		nameTok, err := p.expectIdent()
		if err != nil {
			return err
		}
		st := &Storage{Name: nameTok.Text, Kind: kind, Pos: kindTok.Pos, Depth: 1, Index: len(d.Storage)}
		if _, err := p.expect(lexIdent, "width"); err != nil {
			return err
		}
		if st.Width, err = p.expectInt(); err != nil {
			return err
		}
		if ok, err := p.accept(lexIdent, "depth"); err != nil {
			return err
		} else if ok {
			if st.Depth, err = p.expectInt(); err != nil {
				return err
			}
		}
		if ok, err := p.accept(lexIdent, "base"); err != nil {
			return err
		} else if ok {
			n, err := p.expectNumber()
			if err != nil {
				return err
			}
			st.Base = n.NumVal
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		if _, dup := d.StorageByName[st.Name]; dup {
			return &lexError{st.Pos, fmt.Sprintf("duplicate storage %s", st.Name)}
		}
		d.Storage = append(d.Storage, st)
		d.StorageByName[st.Name] = st
	}
	return nil
}

func (p *parser) parseAlias(d *Description) error {
	pos := p.tok.Pos
	if err := p.advance(); err != nil { // Alias
		return err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return err
	}
	if err := p.expectPunct("="); err != nil {
		return err
	}
	target, err := p.expectIdent()
	if err != nil {
		return err
	}
	a := &Alias{Name: nameTok.Text, Pos: pos, Target: target.Text, Hi: -1, Lo: -1}
	// Up to two bracket suffixes: [index] and/or [hi:lo].
	for i := 0; i < 2; i++ {
		ok, err := p.accept(lexPunct, "[")
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		first, err := p.expectInt()
		if err != nil {
			return err
		}
		if ok, err := p.accept(lexPunct, ":"); err != nil {
			return err
		} else if ok {
			lo, err := p.expectInt()
			if err != nil {
				return err
			}
			if a.Sliced {
				return &lexError{pos, "alias has multiple bit ranges"}
			}
			a.Sliced, a.Hi, a.Lo = true, first, lo
		} else {
			if a.Indexed || a.Sliced {
				return &lexError{pos, "alias index must precede the bit range"}
			}
			a.Indexed, a.Index = true, uint64(first)
		}
		if err := p.expectPunct("]"); err != nil {
			return err
		}
	}
	if err := p.expectPunct(";"); err != nil {
		return err
	}
	d.Aliases = append(d.Aliases, a)
	return nil
}

func (p *parser) parseInstructionSet(d *Description) error {
	for !p.atSectionEnd() {
		if _, err := p.expect(lexIdent, "Field"); err != nil {
			return err
		}
		nameTok, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct(":"); err != nil {
			return err
		}
		f := &Field{Name: nameTok.Text, Pos: nameTok.Pos, Index: len(d.Fields), ByName: map[string]*Operation{}}
		for p.atIdent("op") {
			op, err := p.parseOperation(f)
			if err != nil {
				return err
			}
			if _, dup := f.ByName[op.Name]; dup {
				return &lexError{op.Pos, fmt.Sprintf("duplicate operation %s in field %s", op.Name, f.Name)}
			}
			f.Ops = append(f.Ops, op)
			f.ByName[op.Name] = op
		}
		if len(f.Ops) == 0 {
			return &lexError{f.Pos, fmt.Sprintf("field %s has no operations", f.Name)}
		}
		d.Fields = append(d.Fields, f)
	}
	return nil
}

func (p *parser) parseOperation(f *Field) (*Operation, error) {
	op := &Operation{Field: f, Pos: p.tok.Pos, Costs: Costs{Cycle: 1, Size: 1}, Timing: Timing{Latency: 1, Usage: 1}}
	if err := p.advance(); err != nil { // op
		return nil, err
	}
	nameTok, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	op.Name = nameTok.Text
	if op.Syntax, op.Params, err = p.parseSyntax(); err != nil {
		return nil, err
	}
	for p.tok.Kind == lexIdent && partNames[p.tok.Text] {
		part := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectPunct("{"); err != nil {
			return nil, err
		}
		switch part {
		case "Encode":
			if op.Encode, err = p.parseBitAssigns("I", op.Params); err != nil {
				return nil, err
			}
		case "Action":
			if op.Action, err = p.parseStmts(); err != nil {
				return nil, err
			}
		case "SideEffect":
			if op.SideEffect, err = p.parseStmts(); err != nil {
				return nil, err
			}
		case "Cost":
			if err := p.parseCosts(&op.Costs); err != nil {
				return nil, err
			}
		case "Timing":
			if err := p.parseTiming(&op.Timing); err != nil {
				return nil, err
			}
		case "Value":
			return nil, p.errf("operations use Action, not Value")
		}
		if err := p.expectPunct("}"); err != nil {
			return nil, err
		}
	}
	return op, nil
}

func (p *parser) parseConstraints(d *Description) error {
	for !p.atSectionEnd() {
		pos := p.tok.Pos
		var negate bool
		switch {
		case p.atIdent("constraint"):
		case p.atIdent("never"):
			negate = true
		default:
			return p.errf("expected constraint or never, found %q", p.tok.Text)
		}
		if err := p.advance(); err != nil {
			return err
		}
		e, err := p.parseCExpr(0)
		if err != nil {
			return err
		}
		if negate {
			e = &CNot{X: e}
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		d.Constraints = append(d.Constraints, &Constraint{Pos: pos, Expr: e, Text: cexprString(e)})
	}
	return nil
}

// Constraint-expression precedence: -> (1) < | (2) < & (3) < ! (4).
func (p *parser) parseCExpr(minPrec int) (CExpr, error) {
	var lhs CExpr
	switch {
	case p.atPunct("!"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseCExpr(4)
		if err != nil {
			return nil, err
		}
		lhs = &CNot{X: x}
	case p.atPunct("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		x, err := p.parseCExpr(0)
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		lhs = x
	case p.tok.Kind == lexIdent:
		fieldTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct("."); err != nil {
			return nil, err
		}
		opTok, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		lhs = &CAtom{Field: fieldTok.Text, Op: opTok.Text}
	default:
		return nil, p.errf("expected constraint expression, found %q", p.tok.Text)
	}

	for {
		var prec int
		var op string
		switch {
		case p.atPunct("&"):
			prec, op = 3, "&"
		case p.atPunct("|"):
			prec, op = 2, "|"
		case p.atPunct("->"):
			prec, op = 1, "->"
		default:
			return lhs, nil
		}
		if prec < minPrec {
			return lhs, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		rhs, err := p.parseCExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = &CBin{Op: op, X: lhs, Y: rhs}
	}
}

func cexprString(e CExpr) string {
	switch e := e.(type) {
	case *CAtom:
		return e.Field + "." + e.Op
	case *CNot:
		return "!" + cexprString(e.X)
	case *CBin:
		return "(" + cexprString(e.X) + " " + e.Op + " " + cexprString(e.Y) + ")"
	}
	return "?"
}

func (p *parser) parseInfo(d *Description) error {
	for !p.atSectionEnd() {
		key, err := p.expectIdent()
		if err != nil {
			return err
		}
		if err := p.expectPunct("="); err != nil {
			return err
		}
		var val string
		switch p.tok.Kind {
		case lexString, lexNumber, lexIdent:
			val = p.tok.Text
			if err := p.advance(); err != nil {
				return err
			}
		default:
			return p.errf("expected value, found %q", p.tok.Text)
		}
		if err := p.expectPunct(";"); err != nil {
			return err
		}
		d.Info[key.Text] = val
	}
	return nil
}
