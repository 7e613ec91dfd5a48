// Package decode implements the disassembly function of the paper (§3.3.2,
// Figure 4): the reverse of the ISDL assembly function. Given the raw bits
// of an instruction it identifies the operation selected in every field and
// recovers every parameter value, recursing through non-terminal options.
//
// The XSIM simulators disassemble the whole program off-line at load time
// (§3.1) using this package; the textual disassembler of internal/asm and
// the decode-logic generator of internal/hgen share the same signatures.
package decode

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// Arg is one recovered parameter binding.
type Arg struct {
	Param *isdl.Param
	// Value is the parameter's return value: the token value, or the
	// non-terminal's return bitfield.
	Value bitvec.Value
	// Option is the decoded option when Param is a non-terminal.
	Option *isdl.Option
	// Sub holds the option's own recovered parameters.
	Sub []Arg
}

// Op is one decoded operation instance.
type Op struct {
	Op   *isdl.Operation
	Args []Arg
}

// Inst is one decoded VLIW instruction: one operation per field, in field
// order.
type Inst struct {
	// Word is the full fetched instruction image (MaxSize words wide).
	Word bitvec.Value
	Ops  []*Op
	// Size is the number of instruction words the instruction occupies:
	// the maximum Size cost over the selected operations.
	Size int
}

// ErrIllegal is returned when no operation signature matches; it corresponds
// to Figure 4's ILLEGAL INSTRUCTION result.
type ErrIllegal struct {
	Field string
	Word  bitvec.Value
}

func (e *ErrIllegal) Error() string {
	return fmt.Sprintf("illegal instruction: no operation of field %s matches %s", e.Field, e.Word)
}

// Field decodes the operation selected in one field from the instruction
// image. The match over signature constants is unique for a decodeable
// assembly function (verified during semantic analysis), so the first match
// wins.
func Field(f *isdl.Field, word bitvec.Value) (*Op, error) {
	for _, op := range f.Ops {
		if !op.Sig.Match(word) {
			continue
		}
		args, err := extractArgs(op.Params, &op.Sig, word)
		if err != nil {
			return nil, err
		}
		return &Op{Op: op, Args: args}, nil
	}
	return nil, &ErrIllegal{Field: f.Name, Word: word}
}

func extractArgs(params []*isdl.Param, sig *isdl.Signature, word bitvec.Value) ([]Arg, error) {
	args := make([]Arg, len(params))
	for i, prm := range params {
		v := sig.Extract(i, prm.RetWidth(), word)
		args[i] = Arg{Param: prm, Value: v}
		if prm.NT != nil {
			opt, sub, err := NT(prm.NT, v)
			if err != nil {
				return nil, err
			}
			args[i].Option, args[i].Sub = opt, sub
		}
	}
	return args, nil
}

// NT decodes a non-terminal return value into the option that produced it
// and the option's recovered parameters (Figure 4's disassemble_ntl).
func NT(nt *isdl.NonTerminal, ret bitvec.Value) (*isdl.Option, []Arg, error) {
	for _, opt := range nt.Options {
		if !opt.Sig.Match(ret) {
			continue
		}
		sub, err := extractArgs(opt.Params, &opt.Sig, ret)
		if err != nil {
			return nil, nil, err
		}
		return opt, sub, nil
	}
	return nil, nil, fmt.Errorf("illegal instruction: no option of non-terminal %s matches %s", nt.Name, ret)
}

// Instruction decodes a full VLIW instruction image: one operation from each
// field, then the constraint check.
func Instruction(d *isdl.Description, word bitvec.Value) (*Inst, error) {
	inst := &Inst{Word: word, Size: 1}
	sel := make([]*isdl.Operation, len(d.Fields))
	for i, f := range d.Fields {
		op, err := Field(f, word)
		if err != nil {
			return nil, err
		}
		inst.Ops = append(inst.Ops, op)
		sel[i] = op.Op
		if op.Op.Costs.Size > inst.Size {
			inst.Size = op.Op.Costs.Size
		}
	}
	if err := CheckConstraints(d, sel); err != nil {
		return nil, err
	}
	return inst, nil
}

// CheckConstraints verifies that a complete selection, one operation per
// field indexed by Field.Index, satisfies every constraint of the
// description (§2.1.4). The error names the first violated constraint and
// is built only then.
func CheckConstraints(d *isdl.Description, sel []*isdl.Operation) error {
	for _, c := range d.Constraints {
		if c.Eval(sel) != isdl.True {
			return fmt.Errorf("constraint violated: %s", c.Text)
		}
	}
	return nil
}

// FetchWord assembles the instruction image at address pc from an
// instruction-memory read function: MaxSize consecutive words concatenated
// little-endian (word 0 in the low bits). Reads past the end of memory wrap,
// matching the address truncation of the state package.
func FetchWord(d *isdl.Description, read func(addr int) bitvec.Value, pc int) bitvec.Value {
	n := d.MaxSize()
	img := read(pc)
	for i := 1; i < n; i++ {
		img = read(pc + i).Concat(img)
	}
	return img
}
