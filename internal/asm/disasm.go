package asm

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
)

// This file renders decoded instructions back to assembly text: the textual
// face of the Figure 4 disassembly function. The XSIM simulators use it for
// listings and traces; round-tripping assemble → disassemble → assemble is a
// property test of Axiom 1.

// DisassembleWord decodes and renders the instruction image starting at
// words[0] (the image must already be MaxSize words wide; use
// decode.FetchWord to build it).
func DisassembleWord(d *isdl.Description, word bitvec.Value) (string, error) {
	inst, err := decode.Instruction(d, word)
	if err != nil {
		return "", err
	}
	return RenderInst(d, inst), nil
}

// RenderInst renders a decoded instruction as assembly text. Every field's
// operation is rendered (including nops) so the text is a faithful image of
// the instruction word.
func RenderInst(d *isdl.Description, inst *decode.Inst) string {
	parts := make([]string, 0, len(inst.Ops))
	for _, op := range inst.Ops {
		parts = append(parts, RenderOp(d, op, nil))
	}
	return strings.Join(parts, " || ")
}

// RenderOp renders one decoded operation, qualifying the mnemonic with its
// field when the name is ambiguous across fields. labels maps an index of
// the operation's parameters to a label written instead of the argument
// (the compiler's branch targets); it may be nil.
func RenderOp(d *isdl.Description, op *decode.Op, labels map[int]string) string {
	var sb strings.Builder
	count := 0
	for _, f := range d.Fields {
		if _, ok := f.ByName[op.Op.Name]; ok {
			count++
		}
	}
	if count > 1 {
		sb.WriteString(op.Op.Field.Name)
		sb.WriteByte('.')
	}
	sb.WriteString(op.Op.Name)
	renderSyntax(&sb, op.Op.Syntax, op.Args, labels, true)
	return sb.String()
}

func renderSyntax(sb *strings.Builder, syn []isdl.SynElem, args []decode.Arg, labels map[int]string, leadingSpace bool) {
	first := leadingSpace
	for _, el := range syn {
		switch {
		case el.Lit == ",":
			sb.WriteString(", ")
			first = false
		case el.Lit != "":
			if first {
				sb.WriteByte(' ')
				first = false
			}
			sb.WriteString(el.Lit)
		default:
			if first {
				sb.WriteByte(' ')
				first = false
			}
			if l, ok := labels[el.Param]; ok {
				sb.WriteString(l)
				continue
			}
			renderArg(sb, &args[el.Param])
		}
	}
}

func renderArg(sb *strings.Builder, a *decode.Arg) {
	if a.Param.Token != nil {
		name, ok := a.Param.Token.NameFor(a.Value)
		if !ok {
			// A decoded value outside the token's range (possible for
			// sparse enums); render the raw bits so nothing is hidden.
			name = a.Value.String()
		}
		sb.WriteString(name)
		return
	}
	renderSyntax(sb, a.Option.Syntax, a.Sub, nil, false)
}

// DisassembleProgram renders a whole program as an address-annotated
// listing. Words that do not decode are rendered as .word directives so the
// listing is still assemblable.
func DisassembleProgram(p *Program) string {
	d := p.Desc
	var sb strings.Builder
	if p.Base != 0 {
		fmt.Fprintf(&sb, ".org %d\n", p.Base)
	}
	for _, di := range p.Data {
		fmt.Fprintf(&sb, ".data %s %d", di.Storage, di.Base)
		for _, v := range di.Values {
			fmt.Fprintf(&sb, " %d", v.Uint64())
		}
		sb.WriteByte('\n')
	}
	addrToSym := map[int][]string{}
	for _, name := range p.SymbolsSorted() {
		addrToSym[p.Symbols[name]] = append(addrToSym[p.Symbols[name]], name)
	}
	i := 0
	for i < len(p.Words) {
		addr := p.Base + i
		for _, s := range addrToSym[addr] {
			fmt.Fprintf(&sb, "%s:\n", s)
		}
		img := decode.FetchWord(d, func(a int) bitvec.Value {
			if a-p.Base >= 0 && a-p.Base < len(p.Words) {
				return p.Words[a-p.Base]
			}
			return bitvec.New(d.WordWidth)
		}, addr)
		inst, err := decode.Instruction(d, img)
		if err != nil {
			fmt.Fprintf(&sb, "    .word 0x%x\n", p.Words[i].Uint64())
			i++
			continue
		}
		fmt.Fprintf(&sb, "    %s\n", RenderInst(d, inst))
		i += inst.Size
	}
	return sb.String()
}
