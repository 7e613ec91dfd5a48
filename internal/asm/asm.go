// Package asm implements the retargetable assembler and disassembler of the
// exploration loop (paper Figure 1): the assembly function defined by the
// ISDL bitfield assignments, and its textual reverse built on the Figure 4
// decoder of internal/decode.
package asm

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
)

// Program is an assembled program: an instruction-memory image plus symbols,
// data-memory initializers and a source map for debugging.
type Program struct {
	Desc    *isdl.Description
	Base    int
	Words   []bitvec.Value
	Symbols map[string]int
	// Source maps an instruction-memory address to the source line that
	// produced it.
	Source map[int]string
	Data   []DataInit
}

// DataInit is one ".data" directive: initial contents for a data storage.
type DataInit struct {
	Storage string
	Base    int
	Values  []bitvec.Value
}

// OpSpec is one operation instance to encode: the operation plus one bound
// argument per parameter.
type OpSpec struct {
	Op   *isdl.Operation
	Args []Arg
}

// Arg is one bound argument: for token parameters, Value holds the token
// return value; for non-terminal parameters, Option and Sub select and fill
// an option.
type Arg struct {
	Value  bitvec.Value
	Option *isdl.Option
	Sub    []Arg
}

// retValue computes the argument's encoding bits: the token value itself, or
// the non-terminal return value built from the option's encode assignments.
func (a *Arg) retValue(p *isdl.Param) bitvec.Value {
	if p.Token != nil {
		return a.Value
	}
	vals := make([]bitvec.Value, len(a.Option.Params))
	for i := range a.Option.Params {
		vals[i] = a.Sub[i].retValue(a.Option.Params[i])
	}
	return applyEncode(p.NT.RetWidth, a.Option.Encode, vals)
}

// applyEncode runs the assembly function: it writes constants and parameter
// bits into a width-bit destination.
func applyEncode(width int, encode []*isdl.BitAssign, argVals []bitvec.Value) bitvec.Value {
	out := bitvec.New(width)
	for _, ba := range encode {
		var src bitvec.Value
		if ba.ConstSet {
			src = ba.Const
		} else {
			src = argVals[ba.Param]
			if ba.PHi >= 0 {
				src = src.Slice(ba.PHi, ba.PLo)
			}
		}
		for k := 0; k <= ba.Hi-ba.Lo; k++ {
			out = out.WithBit(ba.Lo+k, src.Bit(k))
		}
	}
	return out
}

// EncodeInstruction encodes one VLIW instruction: one OpSpec per field, in
// field order. It verifies constraints and detects conflicting bit
// assignments between fields, and returns the instruction words (Size words
// of WordWidth bits).
func EncodeInstruction(d *isdl.Description, specs []*OpSpec) ([]bitvec.Value, error) {
	if len(specs) != len(d.Fields) {
		return nil, fmt.Errorf("asm: instruction needs %d operations, got %d", len(d.Fields), len(specs))
	}
	sel := make([]*isdl.Operation, len(specs))
	size := 1
	for i, sp := range specs {
		if sp.Op.Field != d.Fields[i] {
			return nil, fmt.Errorf("asm: operation %s is not in field %s", sp.Op.QualName(), d.Fields[i].Name)
		}
		sel[i] = sp.Op
		if sp.Op.Costs.Size > size {
			size = sp.Op.Costs.Size
		}
	}
	if err := decode.CheckConstraints(d, sel); err != nil {
		return nil, err
	}

	width := size * d.WordWidth
	img := bitvec.New(width)
	written := make([]int8, width) // -1 unwritten, else the bit value
	for i := range written {
		written[i] = -1
	}
	for _, sp := range specs {
		vals := make([]bitvec.Value, len(sp.Op.Params))
		for i, prm := range sp.Op.Params {
			vals[i] = sp.Args[i].retValue(prm)
		}
		part := applyEncode(size*d.WordWidth, sp.Op.Encode, vals)
		for _, ba := range sp.Op.Encode {
			for b := ba.Lo; b <= ba.Hi; b++ {
				v := int8(part.Bit(b))
				if written[b] >= 0 && written[b] != v {
					return nil, fmt.Errorf("asm: operations of different fields assign conflicting values to instruction bit %d", b)
				}
				written[b] = v
				img = img.WithBit(b, uint(v))
			}
		}
	}

	words := make([]bitvec.Value, size)
	for w := 0; w < size; w++ {
		words[w] = img.Slice((w+1)*d.WordWidth-1, w*d.WordWidth)
	}
	return words, nil
}

// NopSpec returns the OpSpec for a field's parameterless "nop" operation, or
// an error if the field has none. The assembler fills unmentioned VLIW
// fields with it.
func NopSpec(f *isdl.Field) (*OpSpec, error) {
	op, ok := f.ByName["nop"]
	if !ok {
		return nil, fmt.Errorf("asm: field %s has no nop operation to fill an unused slot", f.Name)
	}
	if len(op.Params) != 0 {
		return nil, fmt.Errorf("asm: field %s nop takes parameters", f.Name)
	}
	return &OpSpec{Op: op}, nil
}

// ImmFits reports whether value v (as written, possibly negative) fits an
// immediate token's width and signedness.
func ImmFits(t *isdl.Token, v int64) bool {
	if t.Signed {
		min := int64(-1) << uint(t.RetWidth-1)
		max := int64(1)<<uint(t.RetWidth-1) - 1
		return v >= min && v <= max
	}
	return v >= 0 && (t.RetWidth >= 64 || v < int64(1)<<uint(t.RetWidth))
}

// SymbolsSorted returns the program's symbols in address order, for listings.
func (p *Program) SymbolsSorted() []string {
	names := make([]string, 0, len(p.Symbols))
	for n := range p.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.Symbols[names[i]] != p.Symbols[names[j]] {
			return p.Symbols[names[i]] < p.Symbols[names[j]]
		}
		return names[i] < names[j]
	})
	return names
}

// Listing renders an address/hex/source listing of the program.
func (p *Program) Listing() string {
	var sb strings.Builder
	for i, w := range p.Words {
		addr := p.Base + i
		src := p.Source[addr]
		fmt.Fprintf(&sb, "%04x  %s", addr, w)
		if src != "" {
			fmt.Fprintf(&sb, "  ; %s", src)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
