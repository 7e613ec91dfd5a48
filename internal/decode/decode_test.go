package decode_test

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/decode"
	"repro/internal/isdl"
	"repro/internal/machines"
)

func TestFieldDecode(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "sub R6, R2, R1")
	if err != nil {
		t.Fatal(err)
	}
	op, err := decode.Field(d.Fields[0], p.Words[0])
	if err != nil {
		t.Fatal(err)
	}
	if op.Op.Name != "sub" {
		t.Fatalf("op = %s", op.Op.Name)
	}
	if op.Args[0].Value.Uint64() != 6 || op.Args[1].Value.Uint64() != 2 {
		t.Fatalf("args: %v %v", op.Args[0].Value, op.Args[1].Value)
	}
}

func TestFieldIllegal(t *testing.T) {
	d := machines.Toy()
	_, err := decode.Field(d.Fields[0], bitvec.FromUint64(24, 0xe00000))
	var ill *decode.ErrIllegal
	if !errors.As(err, &ill) {
		t.Fatalf("err = %v, want ErrIllegal", err)
	}
	if !strings.Contains(ill.Error(), "EX") {
		t.Fatalf("error should name the field: %v", ill)
	}
}

func TestNTDecode(t *testing.T) {
	d := machines.Toy()
	nt := d.NonTerminals["SRC"]
	// Immediate option: R[8]=1, value bits -3.
	ret := bitvec.FromUint64(9, 0x100|uint64(uint8(0xfd)))
	opt, sub, err := decode.NT(nt, ret)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Index != 1 {
		t.Fatalf("option %d", opt.Index)
	}
	if sub[0].Value.Int64() != -3 {
		t.Fatalf("imm = %d", sub[0].Value.Int64())
	}
	// Register option.
	opt, sub, err = decode.NT(nt, bitvec.FromUint64(9, 5))
	if err != nil {
		t.Fatal(err)
	}
	if opt.Index != 0 || sub[0].Value.Uint64() != 5 {
		t.Fatalf("reg option: %d %v", opt.Index, sub[0].Value)
	}
}

func TestInstructionConstraintViolation(t *testing.T) {
	d := machines.SPAM2()
	// Build a word selecting MV.ld together with BR.jmp, violating
	// "MV.ld -> BR.nop". Assemble the pieces separately, then merge bits.
	ld, err := asm.Assemble(d, "ld R1, @A0")
	if err != nil {
		t.Fatal(err)
	}
	jmp, err := asm.Assemble(d, "jmp 0")
	if err != nil {
		t.Fatal(err)
	}
	// ld's word has BR.nop in [29:28] (0b11); clear those bits and insert
	// jmp's BR bits (0b01 at [29:28]).
	w := ld.Words[0]
	for b := 15; b <= 29; b++ {
		w = w.WithBit(b, jmp.Words[0].Bit(b))
	}
	_, err = decode.Instruction(d, w)
	if err == nil || !strings.Contains(err.Error(), "constraint violated") {
		t.Fatalf("err = %v, want constraint violation", err)
	}
}

func TestInstructionSizeIsMaxOverOps(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "nop")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := decode.Instruction(d, p.Words[0])
	if err != nil {
		t.Fatal(err)
	}
	if inst.Size != 1 || len(inst.Ops) != 1 {
		t.Fatalf("inst: size %d, ops %d", inst.Size, len(inst.Ops))
	}
}

func TestFetchWordSingle(t *testing.T) {
	d := machines.Toy()
	w := bitvec.FromUint64(24, 0x123456)
	img := decode.FetchWord(d, func(addr int) bitvec.Value {
		if addr != 7 {
			t.Fatalf("unexpected read at %d", addr)
		}
		return w
	}, 7)
	if !img.Eq(w) {
		t.Fatalf("img = %s", img)
	}
}

func TestCheckConstraintsEmpty(t *testing.T) {
	d := machines.Toy() // toy has no constraints
	if err := decode.CheckConstraints(d, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCheckConstraintsNamesViolation: on a complete selection the check
// passes or names the first violated constraint.
func TestCheckConstraintsNamesViolation(t *testing.T) {
	d := machines.SPAM()
	sel := make([]*isdl.Operation, len(d.Fields))
	for i, f := range d.Fields {
		sel[i] = f.ByName["nop"]
	}
	if err := decode.CheckConstraints(d, sel); err != nil {
		t.Fatalf("all-nop instruction: %v", err)
	}
	alu, mac := d.FieldByName("ALU"), d.FieldByName("MAC")
	sel[mac.Index] = mac.ByName["sachi"]
	if err := decode.CheckConstraints(d, sel); err != nil {
		t.Fatalf("sachi beside ALU.nop: %v", err)
	}
	sel[alu.Index] = alu.ByName["add"]
	err := decode.CheckConstraints(d, sel)
	if err == nil || err.Error() != "constraint violated: (MAC.sachi -> ALU.nop)" {
		t.Fatalf("sachi beside ALU.add: %v", err)
	}
}
