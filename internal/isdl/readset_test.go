package isdl_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// readSetSource exercises every case Operation.Reads tells apart.
const readSetSource = `
Machine rs;
Format 24;

Section Global_Definitions

Token GPR "R" [0..7];
Token IMM imm unsigned 4;

// PI reads memory through a register, optionally post-incrementing it.
Non_Terminal PI width 4 :
  option "@" (r: GPR)
    Encode { R[3] = 0b0; R[2:0] = r; }
    Value { DM[RF[r]] }
  option "@" (r: GPR) "+"
    Encode { R[3] = 0b1; R[2:0] = r; }
    Value { DM[RF[r]] }
    SideEffect { RF[r] <- RF[r] + 1; }
;

// SRC is a register, an immediate, or a memory operand with a side effect
// of its own.
Non_Terminal SRC width 6 :
  option (r: GPR)
    Encode { R[5:4] = 0b00; R[3] = 0b0; R[2:0] = r; }
    Value { RF[r] }
  option "#" (i: IMM)
    Encode { R[5:4] = 0b01; R[3:0] = i; }
    Value { zext(i, 8) }
  option "[" (p: PI) "]"
    Encode { R[5:4] = 0b10; R[3:0] = p; }
    Value { p }
    SideEffect { ACC <- ACC + 1; }
;

Section Storage

InstructionMemory IMEM width 24 depth 256;
DataMemory DM width 8 depth 64;
RegFile RF width 8 depth 8;
Register ACC width 8;
ControlRegister HLT width 1;
ProgramCounter PC width 8;
Stack STK width 8 depth 4;
Alias RZ = RF[0];

Section Instruction_Set

Field EX:
  op misc (d: GPR)
    Encode { I[23:20] = 0x0; I[19:17] = d; }
    Action { RF[d] <- RZ + pop(STK); push(STK, ACC); }
  op tok (d: GPR) "," (a: GPR)
    Encode { I[23:20] = 0x1; I[19:17] = d; I[16:14] = a; }
    Action { RF[d] <- RF[a] + DM[zext(a, 7) + 70]; }
  op nt (d: GPR) "," (s: SRC)
    Encode { I[23:20] = 0x2; I[19:17] = d; I[5:0] = s; }
    Action { RF[d] <- RF[s]; }
  op st "@" (a: GPR) "," (v: GPR)
    Encode { I[23:20] = 0x3; I[19:17] = a; I[16:14] = v; }
    Action { DM[RF[a]] <- RF[v]; }
  op sto (p: PI) "," (v: GPR)
    Encode { I[23:20] = 0x4; I[19:16] = p; I[15:13] = v; }
    Action { p <- RF[v]; }
  op cond (a: GPR)
    Encode { I[23:20] = 0x5; I[19:17] = a; }
    Action { if (ACC == 0) { RF[a] <- DM[5]; } else { HLT <- 0b1; } }
  op two (s: SRC) "," (t: SRC)
    Encode { I[23:20] = 0x6; I[11:6] = s; I[5:0] = t; }
    Action { ACC <- s + t; }
    SideEffect { ACC <- RZ; }
  op and (d: GPR) "," (a: GPR) "," (b: GPR)
    Encode { I[23:20] = 0x7; I[19:17] = d; I[16:14] = a; I[13:11] = b; }
    Action { RF[d] <- RF[a && b]; }
  op ext (d: GPR) "," (a: GPR)
    Encode { I[23:20] = 0x8; I[19:17] = d; I[16:14] = a; }
    Action { RF[d] <- sext(RF[a], 8); }
  op halt
    Encode { I[23:20] = 0xf; }
    Action { HLT <- 0b1; }
`

// binding is a test isdl.ReadScope: by parameter index, an int token value
// or the chosen option of a non-terminal.
type binding struct {
	params []*isdl.Param
	args   []any
}

type choose struct {
	opt  int
	args []any
}

func (b binding) Option(i int) (*isdl.Option, isdl.ReadScope) {
	c := b.args[i].(choose)
	opt := b.params[i].NT.Options[c.opt]
	return opt, binding{opt.Params, c.args}
}

// value evaluates a decode-time index; it panics on anything that is not
// known at decode time.
func (b binding) value(e isdl.Expr) bitvec.Value {
	switch e := e.(type) {
	case *isdl.Lit:
		return e.Val
	case *isdl.Ref:
		i := slices.Index(b.params, e.Param)
		if e.Param.Token != nil {
			return bitvec.FromUint64(e.W, uint64(b.args[i].(int)))
		}
		opt, sub := b.Option(i)
		return sub.(binding).value(opt.Value)
	case *isdl.Binary:
		if e.Op == "+" {
			return b.value(e.X).Add(b.value(e.Y))
		}
	case *isdl.Call:
		if e.Fn == "zext" {
			return b.value(e.Args[0]).ZeroExt(e.W)
		}
	}
	panic(fmt.Sprintf("%s is not a decode-time index", e))
}

// renderRead writes a read as STORAGE[element], with * for any element.
func renderRead(r isdl.Read) string {
	elem := r.Elem
	if r.Index != nil {
		elem = int(r.Scope.(binding).value(r.Index).Uint64())
		if r.Depth > 0 {
			elem %= r.Depth
		}
	}
	if elem < 0 {
		return r.Storage + "[*]"
	}
	return fmt.Sprintf("%s[%d]", r.Storage, elem)
}

func TestOperationReads(t *testing.T) {
	d, err := isdl.Parse(readSetSource)
	if err != nil {
		t.Fatal(err)
	}
	// sem admits only a literal width, which reads nothing. A storage
	// reference there shows whether the walk skips the width argument.
	ext := d.FieldByName("EX").ByName["ext"]
	ext.Action[0].(*isdl.Assign).RHS.(*isdl.Call).Args[1] = &isdl.Ref{Name: "ACC", Storage: d.StorageByName["ACC"]}

	reg := func(r int) choose { return choose{0, []any{r}} }
	imm := func(i int) choose { return choose{1, []any{i}} }
	mem := func(pi, r int) choose { return choose{2, []any{choose{pi, []any{r}}}} }
	cases := []struct {
		name, op string
		args     []any
		want     []string
	}{
		{"register alias stack pop", "misc", []any{1}, []string{"RF[0]", "STK[*]", "STK[*]", "ACC[0]"}},
		{"token index wrapped by depth", "tok", []any{1, 3}, []string{"RF[3]", "DM[9]"}},
		{"non-terminal value index", "nt", []any{1, imm(5)}, []string{"RF[5]"}},
		{"runtime index", "nt", []any{1, reg(3)}, []string{"RF[3]", "RF[*]"}},
		{"runtime index in memory operand", "nt", []any{1, mem(0, 2)}, []string{"RF[2]", "DM[*]", "RF[*]", "ACC[0]"}},
		{"left-hand index", "st", []any{2, 5}, []string{"RF[5]", "RF[2]"}},
		{"left-hand non-terminal", "sto", []any{choose{1, []any{4}}, 6}, []string{"RF[6]", "RF[4]", "RF[4]"}},
		{"if condition and branches", "cond", []any{2}, []string{"ACC[0]", "DM[5]"}},
		{"option side effects depth first", "two", []any{mem(1, 1), mem(1, 2)},
			[]string{"RF[1]", "DM[*]", "RF[2]", "DM[*]", "RF[0]", "ACC[0]", "RF[1]", "ACC[0]", "RF[2]"}},
		{"&& index is not decode-time", "and", []any{1, 2, 3}, []string{"RF[*]"}},
		{"sext width skipped", "ext", []any{1, 4}, []string{"RF[4]"}},
		{"no reads", "halt", nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			op := d.FieldByName("EX").ByName[c.op]
			var got []string
			op.Reads(binding{op.Params, c.args}, func(r isdl.Read) {
				got = append(got, renderRead(r))
			})
			if !slices.Equal(got, c.want) {
				t.Errorf("reads = %v, want %v", got, c.want)
			}
		})
	}
}
