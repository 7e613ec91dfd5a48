package xsim_test

import (
	"fmt"
	"math/big"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// This file checks the operator table (isdl.Operators) against an oracle
// outside it: every entry runs on the interpreter and on HGEN's Verilog,
// and each result is compared with a value computed from math/big alone,
// never from bitvec or the table.

// oracleWidths are the operand widths of the matrix: the edges of one and
// two 64-bit words, and a few random widths on either side of 64 bits.
func oracleWidths() []int {
	rnd := rand.New(rand.NewSource(26))
	ws := []int{1, 2, 7, 8, 31, 32, 63, 64, 65, 96, 127, 128}
	ws = append(ws, 3+rnd.Intn(60), 3+rnd.Intn(60), 66+rnd.Intn(60))
	slices.Sort(ws)
	return slices.Compact(ws)
}

// probe is one table entry applied at one operand width. An oracle
// machine holds one operation per probe, writing a result file of its own.
type probe struct {
	op     *isdl.Operator
	w      int // operand width
	target int // the width literal of a WidthLiteral call
	args   int // value operands
}

// amountWidth is the width of the shift amounts at operand width w: wide
// enough for 2^64-1, and for 2^64 beyond 64-bit operands.
func amountWidth(w int) int { return max(w, 64) }

func (p probe) resultWidth() int {
	switch p.op.Width {
	case isdl.OneBit, isdl.Logical:
		return 1
	case isdl.WidthLiteral:
		return p.target
	case isdl.SumOfWidths:
		return p.args * p.w
	}
	return p.w
}

// cases is the number of operand cases: all pairs of the oracleN operands
// (a third operand, if any, follows from the pair), or each operand once.
func (p probe) cases() int {
	if p.args == 1 {
		return oracleN
	}
	return oracleN * oracleN
}

// operands returns the operand indices of case i.
func (p probe) operands(i int) []int {
	if p.args == 1 {
		return []int{i}
	}
	a, b := i/oracleN, i%oracleN
	if p.args == 3 {
		return []int{a, b, (a + b) % oracleN}
	}
	return []int{a, b}
}

// rtl is the probe's right-hand side over operand registers a, b and c.
func (p probe) rtl() string {
	x, y := fmt.Sprintf("X%d[a]", p.w), fmt.Sprintf("X%d[b]", p.w)
	if p.op.Width == isdl.Shift {
		y = fmt.Sprintf("S%d[b]", p.w)
	}
	switch {
	case p.op.Form == isdl.FormUnary:
		return p.op.Name + x
	case p.op.Form == isdl.FormBinary:
		return x + " " + p.op.Name + " " + y
	case p.op.Width == isdl.WidthLiteral:
		return fmt.Sprintf("%s(%s, %d)", p.op.Name, x, p.target)
	case p.args == 3:
		return fmt.Sprintf("%s(%s, %s, X%d[c])", p.op.Name, x, y, p.w)
	}
	return fmt.Sprintf("%s(%s, %s)", p.op.Name, x, y)
}

// probesAt returns every table entry at operand width w: a WidthLiteral
// call narrowing, keeping and widening, and concat of two and of three.
func probesAt(w int) []probe {
	var out []probe
	for _, op := range isdl.Operators() {
		switch op.Width {
		case isdl.WidthLiteral:
			for _, t := range slices.Compact([]int{max(1, w/2), w, w + 5}) {
				out = append(out, probe{op: op, w: w, target: t, args: 1})
			}
		case isdl.SumOfWidths:
			out = append(out, probe{op: op, w: w, args: op.Arity}, probe{op: op, w: w, args: op.Arity + 1})
		default:
			out = append(out, probe{op: op, w: w, args: op.Arity})
		}
	}
	return out
}

// oracleN is the number of operands, and of shift amounts, per width.
const oracleN = 8

// oracleValues returns the operands at width w — 0, 1, all ones, the sign
// bit alone, the largest positive value and three random values — and
// the shift amounts: w-1, w, w+1, 2^63, 2^64-1, 2^64 (a random amount
// below w when the amounts are 64 bits wide), a random amount below w,
// and 0.
func oracleValues(rnd *rand.Rand, w int) (xs, ss []*big.Int) {
	one := big.NewInt(1)
	pow := func(n int) *big.Int { return new(big.Int).Lsh(one, uint(n)) }
	random := func(n int) *big.Int { return new(big.Int).Rand(rnd, pow(n)) }
	xs = []*big.Int{new(big.Int), one, ones(w), pow(w - 1), new(big.Int).Sub(pow(w-1), one),
		random(w), random(w), random(w)}
	wide := big.NewInt(rnd.Int63n(int64(w)))
	if amountWidth(w) > 64 {
		wide = pow(64)
	}
	ss = []*big.Int{big.NewInt(int64(w - 1)), big.NewInt(int64(w)), big.NewInt(int64(w + 1)),
		pow(63), ones(64), wide, big.NewInt(rnd.Int63n(int64(w))), new(big.Int)}
	return xs, ss
}

func ones(n int) *big.Int {
	return new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), uint(n)), big.NewInt(1))
}

// oracleWant is probe p's value on operands v, from math/big alone.
// Division by zero gives all ones and remainder by zero the dividend.
func oracleWant(t *testing.T, p probe, v []*big.Int) *big.Int {
	w := p.w
	mod := func(x *big.Int, n int) *big.Int { return new(big.Int).And(x, ones(n)) }
	signed := func(x *big.Int) *big.Int {
		if x.Bit(w-1) == 1 {
			return new(big.Int).Sub(x, new(big.Int).Lsh(big.NewInt(1), uint(w)))
		}
		return x
	}
	b := func(c bool) *big.Int {
		if c {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	overflows := func(s *big.Int) bool {
		lim := new(big.Int).Lsh(big.NewInt(1), uint(w-1))
		return s.Cmp(new(big.Int).Neg(lim)) < 0 || s.Cmp(lim) >= 0
	}
	x := v[0]
	var y *big.Int
	if len(v) > 1 {
		y = v[1]
	}
	name := p.op.Name
	if p.op.Form == isdl.FormUnary {
		name = "unary" + name
	}
	switch name {
	case "unary-":
		return mod(new(big.Int).Neg(x), w)
	case "unary~":
		return new(big.Int).Xor(x, ones(w))
	case "unary!":
		return b(x.Sign() == 0)
	case "+":
		return mod(new(big.Int).Add(x, y), w)
	case "-":
		return mod(new(big.Int).Sub(x, y), w)
	case "*":
		return mod(new(big.Int).Mul(x, y), w)
	case "/":
		if y.Sign() == 0 {
			return ones(w)
		}
		return new(big.Int).Quo(x, y)
	case "%":
		if y.Sign() == 0 {
			return x
		}
		return new(big.Int).Rem(x, y)
	case "&":
		return new(big.Int).And(x, y)
	case "|":
		return new(big.Int).Or(x, y)
	case "^":
		return new(big.Int).Xor(x, y)
	case "<<":
		if y.Cmp(big.NewInt(int64(w))) >= 0 {
			return new(big.Int)
		}
		return mod(new(big.Int).Lsh(x, uint(y.Int64())), w)
	case ">>":
		if y.Cmp(big.NewInt(int64(w))) >= 0 {
			return new(big.Int)
		}
		return new(big.Int).Rsh(x, uint(y.Int64()))
	case "asr":
		if y.Cmp(big.NewInt(int64(w))) < 0 {
			return mod(new(big.Int).Rsh(signed(x), uint(y.Int64())), w)
		}
		if x.Bit(w-1) == 1 {
			return ones(w)
		}
		return new(big.Int)
	case "==":
		return b(x.Cmp(y) == 0)
	case "!=":
		return b(x.Cmp(y) != 0)
	case "<":
		return b(x.Cmp(y) < 0)
	case "<=":
		return b(x.Cmp(y) <= 0)
	case ">":
		return b(x.Cmp(y) > 0)
	case ">=":
		return b(x.Cmp(y) >= 0)
	case "&&":
		return b(x.Sign() != 0 && y.Sign() != 0)
	case "||":
		return b(x.Sign() != 0 || y.Sign() != 0)
	case "sext":
		return mod(signed(x), p.target)
	case "zext", "trunc":
		return mod(x, p.target)
	case "carry":
		return b(new(big.Int).Add(x, y).Cmp(ones(w)) > 0)
	case "borrow":
		return b(x.Cmp(y) < 0)
	case "addov":
		return b(overflows(new(big.Int).Add(signed(x), signed(y))))
	case "subov":
		return b(overflows(new(big.Int).Sub(signed(x), signed(y))))
	case "slt":
		return b(signed(x).Cmp(signed(y)) < 0)
	case "sle":
		return b(signed(x).Cmp(signed(y)) <= 0)
	case "sgt":
		return b(signed(x).Cmp(signed(y)) > 0)
	case "sge":
		return b(signed(x).Cmp(signed(y)) >= 0)
	case "concat":
		r := new(big.Int)
		for _, a := range v {
			r.Lsh(r, uint(w)).Or(r, a)
		}
		return r
	}
	t.Fatalf("no math/big reference for operator %s", p.op.Name)
	return nil
}

// oracleMachine is a machine with operation p<i> for probes[i], and a
// program that applies each probe to every operand case, result by
// result, then halts.
func oracleMachine(t *testing.T, rnd *rand.Rand, probes []probe) (*isdl.Description, *asm.Program) {
	t.Helper()
	var widths []int
	for _, p := range probes {
		widths = append(widths, p.w)
	}
	slices.Sort(widths)
	widths = slices.Compact(widths)

	var prog []string
	for i, p := range probes {
		for c := 0; c < p.cases(); c++ {
			args := []string{fmt.Sprint(c)}
			for _, a := range p.operands(c) {
				args = append(args, fmt.Sprint(a))
			}
			prog = append(prog, fmt.Sprintf("p%d %s", i, strings.Join(args, ", ")))
		}
	}
	prog = append(prog, "halt")
	pcw := bits.Len(uint(len(prog)))

	var sb strings.Builder
	fmt.Fprintf(&sb, "Machine oracle;\nFormat 32;\n\nSection Global_Definitions\n\n")
	fmt.Fprintf(&sb, "Token IX imm unsigned 6;\nToken OX imm unsigned 3;\n\nSection Storage\n\n")
	fmt.Fprintf(&sb, "InstructionMemory IMEM width 32 depth %d;\nProgramCounter PC width %d;\nControlRegister HLT width 1;\n", 1<<pcw, pcw)
	for _, w := range widths {
		fmt.Fprintf(&sb, "RegFile X%d width %d depth %d;\nRegFile S%d width %d depth %d;\n", w, w, oracleN, w, amountWidth(w), oracleN)
	}
	for i, p := range probes {
		fmt.Fprintf(&sb, "RegFile R%d width %d depth %d;\n", i, p.resultWidth(), p.cases())
	}
	sb.WriteString("\nSection Instruction_Set\n\nField EX:\n")
	params := []string{"a", "b", "c"}
	fields := []string{"I[17:15]", "I[14:12]", "I[11:9]"}
	for i, p := range probes {
		n := len(p.operands(0))
		fmt.Fprintf(&sb, "  op p%d (d: IX)", i)
		enc := fmt.Sprintf("I[31:24] = 0b%08b; I[23:18] = d;", i)
		for k := 0; k < n; k++ {
			fmt.Fprintf(&sb, " \",\" (%s: OX)", params[k])
			enc += fmt.Sprintf(" %s = %s;", fields[k], params[k])
		}
		fmt.Fprintf(&sb, "\n    Encode { %s }\n    Action { R%d[d] <- %s; }\n", enc, i, p.rtl())
	}
	sb.WriteString("  op halt\n    Encode { I[31:24] = 0b11111110; }\n    Action { HLT <- 0b1; }\n")
	sb.WriteString("  op nop\n    Encode { I[31:24] = 0b11111111; }\n")

	d, err := isdl.Parse(sb.String())
	if err != nil {
		t.Fatalf("oracle machine: %v", err)
	}
	pr, err := asm.Assemble(d, strings.Join(prog, "\n"))
	if err != nil {
		t.Fatalf("oracle program: %v", err)
	}
	for _, w := range widths {
		xs, ss := oracleValues(rnd, w)
		pr.Data = append(pr.Data,
			asm.DataInit{Storage: fmt.Sprintf("X%d", w), Values: toValues(w, xs)},
			asm.DataInit{Storage: fmt.Sprintf("S%d", w), Values: toValues(amountWidth(w), ss)})
	}
	return d, pr
}

func toValues(w int, xs []*big.Int) []bitvec.Value {
	out := make([]bitvec.Value, len(xs))
	for i, x := range xs {
		words := make([]uint64, (w+63)/64)
		for k := range words {
			words[k] = new(big.Int).And(new(big.Int).Rsh(x, uint(64*k)), ones(64)).Uint64()
		}
		out[i] = bitvec.FromWords(w, words)
	}
	return out
}

func toBig(v bitvec.Value) *big.Int {
	s := v.String()
	r, ok := new(big.Int).SetString(s[strings.Index(s, "'h")+2:], 16)
	if !ok {
		panic("bad value " + s)
	}
	return r
}

// reader returns element i of a storage after a run.
type reader func(storage string, i int) (bitvec.Value, error)

func runInterp(t *testing.T, d *isdl.Description, p *asm.Program) reader {
	t.Helper()
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	snap := sim.Snapshot()
	return func(st string, i int) (bitvec.Value, error) { return snap[st][i], nil }
}

// runVerilog synthesizes d with HGEN and runs p on the generated Verilog
// until the model asserts halted.
func runVerilog(t *testing.T, d *isdl.Description, p *asm.Program) reader {
	t.Helper()
	r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	mod, err := verilog.Parse(r.VerilogText)
	if err != nil {
		t.Fatal(err)
	}
	hw, err := verilog.NewSim(mod)
	if err != nil {
		t.Fatal(err)
	}
	if err := cosim.LoadProgram(hw, p); err != nil {
		t.Fatal(err)
	}
	for tick := 0; ; tick++ {
		h, err := hw.Get("halted")
		if err != nil {
			t.Fatal(err)
		}
		if !h.IsZero() {
			break
		}
		if tick > len(p.Words) {
			t.Fatalf("hardware did not halt within %d ticks", tick)
		}
		if err := hw.Tick("clk"); err != nil {
			t.Fatal(err)
		}
	}
	return func(st string, i int) (bitvec.Value, error) { return hw.GetMem("s_"+st, i) }
}

// checkProbes compares every probe's results with math/big, reporting
// at most a few mismatches per probe.
func checkProbes(t *testing.T, backend string, probes []probe, pr *asm.Program, read reader) {
	t.Helper()
	operand := map[string][]*big.Int{}
	for _, di := range pr.Data {
		for _, v := range di.Values {
			operand[di.Storage] = append(operand[di.Storage], toBig(v))
		}
	}
	for i, p := range probes {
		bad := 0
		for c := 0; c < p.cases(); c++ {
			var v []*big.Int
			for k, a := range p.operands(c) {
				file := "X"
				if k == 1 && p.op.Width == isdl.Shift {
					file = "S"
				}
				v = append(v, operand[fmt.Sprintf("%s%d", file, p.w)][a])
			}
			want := oracleWant(t, p, v)
			got, err := read(fmt.Sprintf("R%d", i), c)
			if err != nil {
				t.Fatal(err)
			}
			if got.Width() != p.resultWidth() || toBig(got).Cmp(want) != 0 {
				t.Errorf("%s: %s at width %d on %#x = %s, want %d'h%x", backend, p.rtl(), p.w, v, got, p.resultWidth(), want)
				if bad++; bad == 3 {
					break
				}
			}
		}
	}
}

// TestOperatorMatrix checks every entry of the operator table at the
// oracle widths on the interpreter and on the Verilog, one machine per
// width.
func TestOperatorMatrix(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	type machine struct {
		d      *isdl.Description
		p      *asm.Program
		probes []probe
	}
	var perWidth []machine
	for _, w := range oracleWidths() {
		probes := probesAt(w)
		d, p := oracleMachine(t, rnd, probes)
		perWidth = append(perWidth, machine{d, p, probes})
	}
	t.Run("interp", func(t *testing.T) {
		for _, m := range perWidth {
			checkProbes(t, "interp", m.probes, m.p, runInterp(t, m.d, m.p))
		}
	})
	t.Run("verilog", func(t *testing.T) {
		for _, m := range perWidth {
			checkProbes(t, "verilog", m.probes, m.p, runVerilog(t, m.d, m.p))
		}
	})
}

// TestOperatorEmitters walks the operator table: every entry must have an
// HGEN emitter whose Verilog the simulator accepts.
func TestOperatorEmitters(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	for _, p := range probesAt(8) {
		d, _ := oracleMachine(t, rnd, []probe{p})
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			t.Errorf("hgen: %s: %v", p.rtl(), err)
			continue
		}
		mod, err := verilog.Parse(r.VerilogText)
		if err == nil {
			_, err = verilog.NewSim(mod)
		}
		if err != nil {
			t.Errorf("hgen: %s: generated Verilog: %v", p.rtl(), err)
		}
	}
}

// shiftMachine shifts 8'h81 left, right and arithmetically right by the
// 64-bit amount 2^64-1, and left by the 72-bit amount 2^64. It returns the
// expected results R[0], R[1], ...
func shiftMachine(t *testing.T) (*isdl.Description, *asm.Program, []uint64) {
	t.Helper()
	d, err := isdl.Parse(`
Machine shifts;
Format 8;

Section Storage

InstructionMemory IMEM width 8 depth 4;
ProgramCounter PC width 2;
ControlRegister HLT width 1;
RegFile X width 8 depth 1;
RegFile S width 64 depth 1;
RegFile R width 8 depth 4;
RegFile L width 72 depth 1;

Section Instruction_Set

Field EX:
  op shift
    Encode { I[7:0] = 0b00000000; }
    Action { R[0] <- X[0] << S[0]; R[1] <- X[0] >> S[0]; R[2] <- asr(X[0], S[0]); R[3] <- X[0] << L[0]; }
  op halt
    Encode { I[7:0] = 0b00000001; }
    Action { HLT <- 0b1; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "shift\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	p.Data = []asm.DataInit{
		{Storage: "X", Values: []bitvec.Value{bitvec.FromUint64(8, 0x81)}},
		{Storage: "S", Values: []bitvec.Value{bitvec.FromUint64(64, ^uint64(0))}},
		{Storage: "L", Values: []bitvec.Value{bitvec.FromWords(72, []uint64{0, 1})}},
	}
	return d, p, []uint64{0, 0, 0xff, 0}
}

// TestShiftAmountUnsigned pins the shift rule on the interpreter and the
// Verilog: the amount is the operand's full unsigned value, so an amount
// of 2^63 or more, or one wider than 64 bits, shifts every bit out.
func TestShiftAmountUnsigned(t *testing.T) {
	for _, b := range []struct {
		name string
		run  func(*testing.T, *isdl.Description, *asm.Program) reader
	}{{"interp", runInterp}, {"verilog", runVerilog}} {
		t.Run(b.name, func(t *testing.T) {
			d, p, want := shiftMachine(t)
			read := b.run(t, d, p)
			for i, w := range want {
				got, err := read("R", i)
				if err != nil {
					t.Fatal(err)
				}
				if got.Uint64() != w {
					t.Errorf("R[%d] = %s, want 8'h%x", i, got, w)
				}
			}
		})
	}
}

// interlockOps extend the toy machine with a port write of latency 3 and
// a port read, both through an 8-bit port number into the 4-deep MMIO.
const interlockOps = `  op outl (p: UIMM8) "," (v: GPR)
    Encode { I[23:20] = 0xe; I[13] = 0b0; I[12] = 0b0; I[7:0] = p; I[19:17] = v; }
    Action { MMIO[p] <- RF[v]; }
    Timing { Latency = 3; Usage = 1; }
  op inp (d: GPR) "," (p: UIMM8)
    Encode { I[23:20] = 0xe; I[13] = 0b0; I[12] = 0b1; I[19:17] = d; I[7:0] = p; }
    Action { RF[d] <- MMIO[p]; }
`

// indexSource reads and writes memories through the 64-bit index values
// X[0] = 2^64-1 and X[1] = 2^63, which are negative as signed integers.
const indexSource = `
Machine index;
Format 8;

Section Storage

InstructionMemory IMEM width 8 depth 4;
ProgramCounter PC width 2;
ControlRegister HLT width 1;
RegFile X width 64 depth 2;
DataMemory M width 8 depth 256;
DataMemory H width 8 depth 100;
RegFile R width 8 depth 2;

Section Instruction_Set

Field EX:
  op index
    Encode { I[7:0] = 0b00000000; }
    Action { R[0] <- M[X[0]]; R[1] <- H[X[1]]; H[X[1]] <- 0b10100101; }
  op halt
    Encode { I[7:0] = 0b00000001; }
    Action { HLT <- 0b1; }
`

// TestAddressRule pins isdl.Storage.Addr on the interpreter and the
// Verilog: an index value's low 64 bits, read unsigned, modulo the depth,
// wherever an index is computed (element reads, write destinations, the
// interlock's read sets and its pending write-backs).
func TestAddressRule(t *testing.T) {
	t.Run("interlock", func(t *testing.T) {
		d, err := isdl.Parse(strings.Replace(machines.ToySource, "  op halt\n", interlockOps+"  op halt\n", 1))
		if err != nil {
			t.Fatal(err)
		}
		// outl 5 writes MMIO[1] three cycles late, so inp, which reads
		// MMIO[1], must wait for it exactly as it does after outl 1.
		for _, port := range []int{1, 5} {
			p, err := asm.Assemble(d, fmt.Sprintf("mv R1, #7\noutl %d, R1\ninp R2, 1\nhalt", port))
			if err != nil {
				t.Fatal(err)
			}
			t.Run(fmt.Sprintf("interp/outl_%d", port), func(t *testing.T) {
				sim := xsim.New(d)
				if err := sim.Load(p); err != nil {
					t.Fatal(err)
				}
				if err := sim.Run(0); err != nil {
					t.Fatal(err)
				}
				st := sim.Stats()
				r2 := sim.Snapshot()["RF"][2].Uint64()
				if r2 != 7 || st.DataStalls != 2 || st.Cycles != 6 {
					t.Errorf("R2 = %d, %d data stalls, %d cycles; want 7, 2, 6", r2, st.DataStalls, st.Cycles)
				}
			})
		}
	})
	d, err := isdl.Parse(indexSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "index\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	ramp := func(n int) []bitvec.Value {
		out := make([]bitvec.Value, n)
		for i := range out {
			out[i] = bitvec.FromUint64(8, uint64(i))
		}
		return out
	}
	p.Data = []asm.DataInit{
		{Storage: "X", Values: []bitvec.Value{bitvec.FromUint64(64, ^uint64(0)), bitvec.FromUint64(64, 1<<63)}},
		{Storage: "M", Values: ramp(256)},
		{Storage: "H", Values: ramp(100)},
	}
	for _, b := range []struct {
		name string
		run  func(*testing.T, *isdl.Description, *asm.Program) reader
	}{{"interp", runInterp}, {"verilog", runVerilog}} {
		t.Run(b.name, func(t *testing.T) {
			read := b.run(t, d, p)
			for _, c := range []struct {
				storage string
				i       int
				want    uint64
			}{
				{"R", 0, 255},  // M[(2^64-1) mod 256]
				{"R", 1, 8},    // H[2^63 mod 100], read before the write
				{"H", 8, 0xa5}, // written through 2^63
			} {
				got, err := read(c.storage, c.i)
				if err != nil {
					t.Fatal(err)
				}
				if got.Uint64() != c.want {
					t.Errorf("%s[%d] = %d, want %d", c.storage, c.i, got.Uint64(), c.want)
				}
			}
		})
	}
}

// TestAliasMidSlice reads and writes an alias covering a middle bit range of
// a wider register.
func TestAliasMidSlice(t *testing.T) {
	d, err := isdl.Parse(aliasSource)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, `
    ldi R1, -1
    sta R1          ; ACC[19:4] <- 0xffff
    lda R2          ; R2 <- ACC[19:4]
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sim.State().Get("ACC", 0).Uint64(); got != 0xffff0 {
		t.Fatalf("ACC = %#x, want 0xffff0", got)
	}
	if got := sim.State().Get("RF", 2).Uint64(); got != 0xffff {
		t.Fatalf("R2 = %#x", got)
	}
}

// aliasSource has an alias over bits [19:4] of a 24-bit register.
const aliasSource = `
Machine alias;
Format 32;

Section Global_Definitions

Token GPR "R" [0..7];
Token IMM8 imm signed 8;

Section Storage

InstructionMemory IMEM width 32 depth 64;
RegFile RF width 16 depth 8;
Register ACC width 24;
ControlRegister HLT width 1;
ProgramCounter PC width 6;
Alias AMID = ACC[19:4];

Section Instruction_Set

Field EX:
  op ldi (d: GPR) "," (i: IMM8)
    Encode { I[31:27] = 0b00000; I[26:24] = d; I[7:0] = i; }
    Action { RF[d] <- sext(i, 16); }
  op sta (a: GPR)
    Encode { I[31:27] = 0b00010; I[23:21] = a; }
    Action { AMID <- RF[a]; }
  op lda (d: GPR)
    Encode { I[31:27] = 0b00011; I[26:24] = d; }
    Action { RF[d] <- AMID; }
  op halt
    Encode { I[31:27] = 0b11110; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[31:27] = 0b11111; }
`

// TestSetHaltStorageAndErr covers the remaining simulator control surface.
func TestSetHaltStorageAndErr(t *testing.T) {
	d := machines.Toy()
	sim := xsim.New(d)
	if err := sim.SetHaltStorage("ACC"); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetHaltStorage("NOPE"); err == nil {
		t.Fatal("unknown storage should fail")
	}
	p, err := asm.Assemble(d, "mv R1, #1\nst @R2, R1\njmp 0") // never halts by HLT
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	// ACC is never written, so the program runs to the limit.
	if err := sim.Run(10); err != nil {
		t.Fatal(err)
	}
	if sim.Err() != nil {
		t.Fatalf("unexpected error: %v", sim.Err())
	}
}
