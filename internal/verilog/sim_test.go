package verilog_test

import (
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/verilog"
)

// These tests pin the simulator's value semantics on wide and mixed-width
// operands and its event count. Every expected value is computed here,
// with math/big or by hand, never by the simulator itself.

// wide builds a bitvec value of width w from a math/big integer.
func wide(w int, x *big.Int) bitvec.Value {
	var words []uint64
	m := new(big.Int).Set(x)
	mask := new(big.Int).SetUint64(^uint64(0))
	for i := 0; i < (w+63)/64; i++ {
		words = append(words, new(big.Int).And(m, mask).Uint64())
		m.Rsh(m, 64)
	}
	return bitvec.FromWords(w, words)
}

// toBig converts a bitvec value to a math/big integer bit by bit.
func toBig(v bitvec.Value) *big.Int {
	r := new(big.Int)
	for i := v.Width() - 1; i >= 0; i-- {
		r.Lsh(r, 1)
		if v.Bit(i) == 1 {
			r.SetBit(r, 0, 1)
		}
	}
	return r
}

func hexBig(s string) *big.Int {
	x, ok := new(big.Int).SetString(strings.ReplaceAll(s, "_", ""), 16)
	if !ok {
		panic("bad hex " + s)
	}
	return x
}

// modW reduces x modulo 2^w into [0, 2^w).
func modW(x *big.Int, w int) *big.Int {
	return new(big.Int).Mod(x, new(big.Int).Lsh(big.NewInt(1), uint(w)))
}

func b2i(b bool) *big.Int {
	if b {
		return big.NewInt(1)
	}
	return big.NewInt(0)
}

// binaryRef computes a binary operator on unsigned operands of widths xw
// and yw under the subset's width rules: comparisons and logical
// operators are one bit, shifts keep the left operand's width, and every
// other operator zero-extends to the wider operand and wraps.
func binaryRef(op string, x *big.Int, xw int, y *big.Int, yw int) (*big.Int, int) {
	w := xw
	if yw > w {
		w = yw
	}
	zero := y.Sign() == 0
	switch op {
	case "+":
		return modW(new(big.Int).Add(x, y), w), w
	case "-":
		return modW(new(big.Int).Sub(x, y), w), w
	case "*":
		return modW(new(big.Int).Mul(x, y), w), w
	case "/":
		if zero {
			return modW(big.NewInt(-1), w), w
		}
		return new(big.Int).Quo(x, y), w
	case "%":
		if zero {
			return new(big.Int).Set(x), w
		}
		return new(big.Int).Rem(x, y), w
	case "&":
		return new(big.Int).And(x, y), w
	case "|":
		return new(big.Int).Or(x, y), w
	case "^":
		return new(big.Int).Xor(x, y), w
	case "==":
		return b2i(x.Cmp(y) == 0), 1
	case "!=":
		return b2i(x.Cmp(y) != 0), 1
	case "<":
		return b2i(x.Cmp(y) < 0), 1
	case "<=":
		return b2i(x.Cmp(y) <= 0), 1
	case ">":
		return b2i(x.Cmp(y) > 0), 1
	case ">=":
		return b2i(x.Cmp(y) >= 0), 1
	case "&&":
		return b2i(x.Sign() != 0 && y.Sign() != 0), 1
	case "||":
		return b2i(x.Sign() != 0 || y.Sign() != 0), 1
	// A shift amount is the operand's full unsigned value.
	case "<<":
		if y.Cmp(big.NewInt(int64(xw))) >= 0 {
			return big.NewInt(0), xw
		}
		return modW(new(big.Int).Lsh(x, uint(y.Uint64())), xw), xw
	case ">>":
		if y.Cmp(big.NewInt(int64(xw))) >= 0 {
			return big.NewInt(0), xw
		}
		return new(big.Int).Rsh(x, uint(y.Uint64())), xw
	}
	panic("no reference for " + op)
}

func unaryRef(op string, x *big.Int, w int) (*big.Int, int) {
	switch op {
	case "~":
		return new(big.Int).Sub(modW(big.NewInt(-1), w), x), w
	case "-":
		return modW(new(big.Int).Neg(x), w), w
	case "!":
		return b2i(x.Sign() == 0), 1
	case "|":
		return b2i(x.Sign() != 0), 1
	}
	panic("no reference for " + op)
}

// opCase is one output of the operator module: the expression text and
// its expected value as a function of the inputs.
type opCase struct {
	expr string
	want func(in map[string]*big.Int) (*big.Int, int)
}

// TestOperatorsWide runs every binary and unary operator of the subset on
// 96-bit operands, on a 96-bit and a 32-bit operand in both orders, and
// on wide slices, for input vectors that include a zero divisor, shift
// amounts beyond the width and a set top bit.
func TestOperatorsWide(t *testing.T) {
	widths := map[string]int{"a": 96, "b": 96, "c": 32}
	var cases []opCase
	for _, op := range []string{"+", "-", "*", "/", "%", "&", "|", "^", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "<<", ">>"} {
		for _, xy := range [][2]string{{"a", "b"}, {"a", "c"}, {"c", "a"}, {"c", "c"}} {
			op, x, y := op, xy[0], xy[1]
			cases = append(cases, opCase{fmt.Sprintf("(%s %s %s)", x, op, y), func(in map[string]*big.Int) (*big.Int, int) {
				return binaryRef(op, in[x], widths[x], in[y], widths[y])
			}})
		}
	}
	for _, op := range []string{"~", "-", "!", "|"} {
		for _, x := range []string{"a", "c"} {
			op, x := op, x
			cases = append(cases, opCase{fmt.Sprintf("(%s%s)", op, x), func(in map[string]*big.Int) (*big.Int, int) {
				return unaryRef(op, in[x], widths[x])
			}})
		}
	}
	for _, hl := range [][2]int{{95, 64}, {71, 8}, {94, 30}, {95, 0}, {63, 63}, {64, 64}, {31, 0}} {
		hi, lo := hl[0], hl[1]
		cases = append(cases, opCase{fmt.Sprintf("a[%d:%d]", hi, lo), func(in map[string]*big.Int) (*big.Int, int) {
			return modW(new(big.Int).Rsh(in["a"], uint(lo)), hi-lo+1), hi - lo + 1
		}})
	}
	cases = append(cases,
		opCase{"(a + b)[95:60]", func(in map[string]*big.Int) (*big.Int, int) {
			s := modW(new(big.Int).Add(in["a"], in["b"]), 96)
			return modW(s.Rsh(s, 60), 36), 36
		}},
		opCase{"((c != 32'h00000000) ? c : a)", func(in map[string]*big.Int) (*big.Int, int) {
			if in["c"].Sign() != 0 {
				return in["c"], 96
			}
			return in["a"], 96
		}},
		opCase{"{c, a}", func(in map[string]*big.Int) (*big.Int, int) {
			return new(big.Int).Or(new(big.Int).Lsh(in["c"], 96), in["a"]), 128
		}},
	)

	// Declare each output at the width of its expected value.
	probe := map[string]*big.Int{"a": big.NewInt(0), "b": big.NewInt(0), "c": big.NewInt(0)}
	var ports, decls, assigns []string
	for i, c := range cases {
		_, w := c.want(probe)
		ports = append(ports, fmt.Sprintf("y%d", i))
		decls = append(decls, fmt.Sprintf("  output [%d:0] y%d;", w-1, i))
		assigns = append(assigns, fmt.Sprintf("  assign y%d = %s;", i, c.expr))
	}
	src := "module ops (\n  a,\n  b,\n  c,\n  " + strings.Join(ports, ",\n  ") + "\n);\n" +
		"  input [95:0] a;\n  input [95:0] b;\n  input [31:0] c;\n" +
		strings.Join(decls, "\n") + "\n" + strings.Join(assigns, "\n") + "\nendmodule\n"
	sim, err := verilog.NewSim(parse(t, src))
	if err != nil {
		t.Fatal(err)
	}

	vectors := []map[string]*big.Int{
		{"a": hexBig("9abc_def0_1234_5678_0fed_cba9"), "b": hexBig("0000_0001_ffff_ffff_0000_0003"), "c": big.NewInt(37)},
		{"a": big.NewInt(5), "b": hexBig("8000_0000_0000_0000_0000_0000"), "c": hexBig("ffff_fff0")},
		{"a": hexBig("ffff_ffff_ffff_ffff_ffff_ffff"), "b": big.NewInt(0), "c": big.NewInt(0)},
		{"a": big.NewInt(0), "b": hexBig("1_0000_0000_0000_0000"), "c": hexBig("8000_0001")},
	}
	for vi, in := range vectors {
		for _, name := range []string{"a", "b", "c"} {
			if err := sim.SetInput(name, wide(widths[name], in[name])); err != nil {
				t.Fatal(err)
			}
		}
		for i, c := range cases {
			want, w := c.want(in)
			got, err := sim.Get(fmt.Sprintf("y%d", i))
			if err != nil {
				t.Fatal(err)
			}
			if got.Width() != w || toBig(got).Cmp(want) != 0 {
				t.Errorf("vector %d: %s = %s, want %d'h%x", vi, c.expr, got, w, want)
			}
		}
	}
}

// decodeSrc is the decode shape HGEN emits: a 96-bit mask-and-compare
// against constant concatenations.
const decodeSrc = `
module dec (
  ir,
  k,
  hit,
  miss
);
  input [95:0] ir;
  output [95:0] k;
  output hit;
  output miss;

  assign k = {64'h0123456789abcdef, 32'hfedcba98};
  assign hit = ((ir & {64'hf000000000000000, 32'h0000000f}) == {64'h3000000000000000, 32'h00000005});
  assign miss = ((ir & {64'hf000000000000000, 32'h0000000f}) != {64'h3000000000000000, 32'h00000005});
endmodule
`

// TestConstantConcat checks an all-constant concatenation and the decode
// shape HGEN emits around it: a 96-bit mask-and-compare against constant
// {64'h…, 32'h…} operands.
func TestConstantConcat(t *testing.T) {
	sim, err := verilog.NewSim(parse(t, decodeSrc))
	if err != nil {
		t.Fatal(err)
	}
	k, err := sim.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if want := hexBig("0123456789abcdef_fedcba98"); k.Width() != 96 || toBig(k).Cmp(want) != 0 {
		t.Errorf("k = %s, want 96'h%x", k, want)
	}
	for _, tc := range []struct {
		ir  string
		hit uint64
	}{
		{"3abc_0000_0000_0000_1234_5675", 1},
		{"3000_0000_0000_0000_0000_0005", 1},
		{"2abc_0000_0000_0000_1234_5675", 0},
		{"3abc_0000_0000_0000_1234_5676", 0},
		{"0", 0},
	} {
		if err := sim.SetInput("ir", wide(96, hexBig(tc.ir))); err != nil {
			t.Fatal(err)
		}
		hit, _ := sim.Get("hit")
		miss, _ := sim.Get("miss")
		if hit.Uint64() != tc.hit || miss.Uint64() != 1-tc.hit {
			t.Errorf("ir %s: hit %d miss %d, want %d %d", tc.ir, hit.Uint64(), miss.Uint64(), tc.hit, 1-tc.hit)
		}
	}
}

// nbSliceSrc writes part-selects of a wide register non-blockingly.
const nbSliceSrc = `
module nbs (
  clk,
  x,
  r
);
  input clk;
  input [7:0] x;
  output [95:0] r;

  reg [95:0] r;

  always @(posedge clk) begin
    r[71:64] <= x;
    r[95:88] <= r[71:64];
    r[3:0] <= x;
  end
endmodule
`

// TestNonBlockingSliceLValue checks part-select non-blocking writes to a
// wide register: both read the pre-edge value and land together.
func TestNonBlockingSliceLValue(t *testing.T) {
	sim, err := verilog.NewSim(parse(t, nbSliceSrc))
	if err != nil {
		t.Fatal(err)
	}
	step := func(x uint64) *big.Int {
		t.Helper()
		if err := sim.SetInput("x", bitvec.FromUint64(8, x)); err != nil {
			t.Fatal(err)
		}
		if err := sim.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		r, err := sim.Get("r")
		if err != nil {
			t.Fatal(err)
		}
		return toBig(r)
	}
	if got, want := step(0xab), hexBig("00ab_0000_0000_0000_000b"); got.Cmp(want) != 0 {
		t.Errorf("after tick 1: r = %x, want %x", got, want)
	}
	if got, want := step(0xcd), hexBig("ab00_00cd_0000_0000_0000_000d"); got.Cmp(want) != 0 {
		t.Errorf("after tick 2: r = %x, want %x", got, want)
	}
}

// wrapSrc reads and writes memories at indices beyond their depth.
const wrapSrc = `
module wrap (
  clk,
  we,
  ra,
  wa,
  ba,
  din,
  dout,
  q
);
  input clk;
  input we;
  input [3:0] ra;
  input [3:0] wa;
  input [2:0] ba;
  input [7:0] din;
  output [7:0] dout;
  output [7:0] q;

  reg [7:0] mem [0:4];
  reg [7:0] bm [0:5];
  reg [7:0] q;

  assign dout = mem[ra];

  always @(posedge clk) begin
    if (we) begin
      mem[wa] <= din;
    end
    bm[ba] = din;
    q = (bm[ba] + 8'h01);
  end
endmodule
`

// TestIndexWrap checks that memory indices wrap modulo the depth on a
// continuous read, a non-blocking write and a blocking write, and that a
// blocking memory write is visible to the next statement of the block.
func TestIndexWrap(t *testing.T) {
	sim, err := verilog.NewSim(parse(t, wrapSrc))
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string, w int, v uint64) {
		t.Helper()
		if err := sim.SetInput(name, bitvec.FromUint64(w, v)); err != nil {
			t.Fatal(err)
		}
	}
	set("we", 1, 1)
	set("wa", 4, 12) // 12 mod 5 = 2
	set("ba", 3, 7)  // 7 mod 6 = 1
	set("din", 8, 0x5a)
	if err := sim.Tick("clk"); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mem  string
		idx  int
		want uint64
	}{{"mem", 2, 0x5a}, {"mem", 0, 0}, {"bm", 1, 0x5a}, {"bm", 0, 0}} {
		v, err := sim.GetMem(c.mem, c.idx)
		if err != nil {
			t.Fatal(err)
		}
		if v.Uint64() != c.want {
			t.Errorf("%s[%d] = %#x, want %#x", c.mem, c.idx, v.Uint64(), c.want)
		}
	}
	if q, _ := sim.Get("q"); q.Uint64() != 0x5b {
		t.Errorf("q = %#x, want 0x5b (blocking write not visible)", q.Uint64())
	}
	for _, ra := range []uint64{2, 7, 12} { // all name word 2 of 5
		set("ra", 4, ra)
		if v, _ := sim.Get("dout"); v.Uint64() != 0x5a {
			t.Errorf("dout at ra=%d: %#x, want 0x5a", ra, v.Uint64())
		}
	}
	set("ra", 4, 8) // 8 mod 5 = 3, never written
	if v, _ := sim.Get("dout"); v.Uint64() != 0 {
		t.Errorf("dout at ra=8: %#x, want 0", v.Uint64())
	}
}

// TestCombinationalLoop: an assignment that reads the net it drives has
// no fixpoint to settle to, so NewSim rejects it and names the net, rather
// than spending settle's whole event budget on it. The part-select
// assignments of sliceLSrc drive one net twice without reading it and
// still elaborate.
func TestCombinationalLoop(t *testing.T) {
	src := strings.Replace(counterSrc, "assign next = (cnt + 8'h01);", "assign next = (next + 8'h01);", 1)
	_, err := verilog.NewSim(parse(t, src))
	if err == nil || !strings.Contains(err.Error(), "combinational loop through net next") {
		t.Fatalf("NewSim: %v, want a loop through next", err)
	}
	// A longer cycle: next feeds count, which feeds next.
	src = strings.Replace(counterSrc, "assign next = (cnt + 8'h01);", "assign next = (count + 8'h01);", 1)
	src = strings.Replace(src, "assign count = cnt;", "assign count = next;", 1)
	if _, err := verilog.NewSim(parse(t, src)); err == nil || !strings.Contains(err.Error(), "combinational loop through net") {
		t.Fatalf("NewSim: %v, want a loop", err)
	}
	if _, err := verilog.NewSim(parse(t, sliceLSrc)); err != nil {
		t.Fatal(err)
	}
}

// TestCounterEvents pins Events() on counterSrc. Elaboration evaluates
// each of the three continuous assignments once. An enabled tick is one
// non-blocking assignment plus one re-evaluation of each assignment that
// reads cnt (all three); the changed next, count and atmax feed no other
// assignment. A disabled tick evaluates only the if condition, which is
// not an event, and changes nothing.
func TestCounterEvents(t *testing.T) {
	sim, err := verilog.NewSim(parse(t, counterSrc))
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.Events(); got != 3 {
		t.Fatalf("events after NewSim = %d, want 3", got)
	}
	if err := sim.SetInput("en", bitvec.FromUint64(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := sim.Events(); got != 3 {
		t.Fatalf("events after SetInput(en) = %d, want 3 (en has no fan-out)", got)
	}
	for i := uint64(1); i <= 5; i++ {
		if err := sim.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		if got, want := sim.Events(), 3+4*i; got != want {
			t.Fatalf("events after enabled tick %d = %d, want %d", i, got, want)
		}
	}
	if err := sim.SetInput("en", bitvec.New(1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := sim.Tick("clk"); err != nil {
			t.Fatal(err)
		}
		if got := sim.Events(); got != 23 {
			t.Fatalf("events after disabled tick %d = %d, want 23", i+1, got)
		}
	}
	if v, _ := sim.Get("count"); v.Uint64() != 5 {
		t.Fatalf("count = %d, want 5", v.Uint64())
	}
}

// TestElaborationErrors builds modules that NewSim must reject, by hand or
// from text that Parse accepts. The first two used to pass NewSim: the
// undeclared net in a branch that is never taken was never evaluated, and
// the memory write to a scalar net panicked inside Tick.
func TestElaborationErrors(t *testing.T) {
	clk := verilog.Port{Name: "clk", Dir: verilog.In, Width: 1}
	r := verilog.Net{Name: "r", Width: 8, Reg: true}
	mem := verilog.Net{Name: "mem", Width: 8, Reg: true, Depth: 4}
	k8 := &verilog.Const{Val: bitvec.FromUint64(8, 3)}
	always := func(stmts ...verilog.Stmt) []verilog.Always {
		return []verilog.Always{{Clock: "clk", Stmts: stmts}}
	}
	cases := []struct {
		name string
		m    *verilog.Module
		src  string // parsed when m is nil
		want string
	}{
		{"undeclared net in an untaken branch", &verilog.Module{
			Ports: []verilog.Port{clk}, Nets: []verilog.Net{r},
			Always: always(&verilog.If{
				Cond: &verilog.Const{Val: bitvec.New(1)},
				Then: []verilog.Stmt{&verilog.BAssign{LHS: &verilog.NetL{Name: "r"}, RHS: &verilog.Ref{Name: "nope", W: 8}}},
			}),
		}, "", "no net nope"},
		{"memory write to a scalar net", &verilog.Module{
			Ports: []verilog.Port{clk}, Nets: []verilog.Net{r},
			Always: always(&verilog.NBAssign{LHS: &verilog.IndexL{Name: "r", Idx: k8}, RHS: k8}),
		}, "", "r is not a memory"},
		{"memory read of a scalar net", &verilog.Module{
			Ports: []verilog.Port{clk}, Nets: []verilog.Net{r},
			Assigns: []verilog.Assign{{LHS: &verilog.NetL{Name: "r"}, RHS: &verilog.Index{Name: "r", Idx: k8, W: 8}}},
		}, "", "no memory r"},
		{"unknown binary operator", &verilog.Module{
			Nets:    []verilog.Net{r},
			Assigns: []verilog.Assign{{LHS: &verilog.NetL{Name: "r"}, RHS: &verilog.Binary{Op: "**", X: k8, Y: k8, W: 8}}},
		}, "", `unknown binary operator "**"`},
		{"unknown unary operator", &verilog.Module{
			Nets:    []verilog.Net{r},
			Assigns: []verilog.Assign{{LHS: &verilog.NetL{Name: "r"}, RHS: &verilog.Unary{Op: "&", X: k8, W: 1}}},
		}, "", `unknown unary operator "&"`},
		{"continuous assignment to a memory", &verilog.Module{
			Nets:    []verilog.Net{mem},
			Assigns: []verilog.Assign{{LHS: &verilog.IndexL{Name: "mem", Idx: k8}, RHS: k8}},
		}, "", "continuous assignment to a memory"},
		{"undeclared assignment target", &verilog.Module{
			Ports:  []verilog.Port{clk},
			Always: always(&verilog.BAssign{LHS: &verilog.NetL{Name: "ghost"}, RHS: k8}),
		}, "", "no net ghost"},
		{"part-select beyond the net", &verilog.Module{
			Ports: []verilog.Port{clk}, Nets: []verilog.Net{r},
			Always: always(&verilog.NBAssign{LHS: &verilog.SliceL{Name: "r", Hi: 8, Lo: 4}, RHS: k8}),
		}, "", "slice [8:4] out of range of r"},
		{"undeclared net read", nil,
			"module m (\n a\n);\n input a;\n wire y;\n assign y = z;\nendmodule\n",
			"no net z"},
		{"slice beyond a port", nil,
			"module m (\n a\n);\n input [3:0] a;\n wire y;\n assign y = a[9:8];\nendmodule\n",
			"slice [9:8] out of range of a"},
		{"memory without an index", nil,
			"module m (\n c\n);\n input c;\n reg [3:0] mm [0:3];\n wire [3:0] y;\n assign y = mm;\nendmodule\n",
			"memory mm used without an index"},
		{"net and memory of one name", nil,
			"module m (\n a\n);\n input a;\n reg [3:0] a [0:3];\nendmodule\n",
			"a declared both as a net and as a memory"},
		{"net wider than a value", &verilog.Module{
			Nets: []verilog.Net{{Name: "huge", Width: bitvec.MaxWidth + 1}},
		}, "", "huge declared 65537 bits wide"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := c.m
			if m == nil {
				m = parse(t, c.src)
			}
			_, err := verilog.NewSim(m)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("NewSim error %v, want one containing %q", err, c.want)
			}
		})
	}
}
