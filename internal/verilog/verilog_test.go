package verilog_test

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/verilog"
)

// counterSrc is a small sequential design: an enabled counter with a
// combinational comparator output.
const counterSrc = `
// generated test design
module counter (
  clk,
  en,
  count,
  atmax
);
  input clk;
  input en;
  output [7:0] count;
  output atmax;

  reg [7:0] cnt;
  wire [7:0] next;

  assign next = (cnt + 8'h01);
  assign count = cnt;
  assign atmax = (cnt == 8'hff);

  always @(posedge clk) begin
    if (en) begin
      cnt <= next;
    end
  end
endmodule
`

func parse(t *testing.T, src string) *verilog.Module {
	t.Helper()
	m, err := verilog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestParseCounter(t *testing.T) {
	m := parse(t, counterSrc)
	if m.Name != "counter" || len(m.Ports) != 4 || len(m.Assigns) != 3 || len(m.Always) != 1 {
		t.Fatalf("module shape: %+v", m)
	}
	w, depth, ok := m.NetByName("cnt")
	if !ok || w != 8 || depth != 0 {
		t.Fatalf("cnt: %d %d %v", w, depth, ok)
	}
}

func TestEmitParseFixpoint(t *testing.T) {
	m := parse(t, counterSrc)
	text1 := verilog.Emit(m)
	m2 := parse(t, text1)
	text2 := verilog.Emit(m2)
	if text1 != text2 {
		t.Fatalf("emit→parse→emit not a fixpoint:\n%s\n---\n%s", text1, text2)
	}
}

func TestSimCounter(t *testing.T) {
	m := parse(t, counterSrc)
	sim, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("en", bitvec.FromUint64(1, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := sim.Tick("clk"); err != nil {
			t.Fatal(err)
		}
	}
	v, err := sim.Get("count")
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint64() != 10 {
		t.Fatalf("count = %d, want 10", v.Uint64())
	}
	// Disable: no further counting.
	if err := sim.SetInput("en", bitvec.New(1)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Tick("clk"); err != nil {
		t.Fatal(err)
	}
	v, _ = sim.Get("count")
	if v.Uint64() != 10 {
		t.Fatalf("count after disable = %d", v.Uint64())
	}
	if sim.Events() == 0 {
		t.Fatal("no events counted")
	}
}

const memSrc = `
module memdut (
  clk,
  we,
  addr,
  din,
  dout
);
  input clk;
  input we;
  input [3:0] addr;
  input [7:0] din;
  output [7:0] dout;

  reg [7:0] mem [0:15];

  assign dout = mem[addr];

  always @(posedge clk) begin
    if (we) begin
      mem[addr] <= din;
    end
  end
endmodule
`

func TestSimMemory(t *testing.T) {
	m := parse(t, memSrc)
	sim, err := verilog.NewSim(m)
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
	set("addr", 4, 5)
	set("din", 8, 0xab)
	if err := sim.Tick("clk"); err != nil {
		t.Fatal(err)
	}
	set("we", 1, 0)
	v, err := sim.Get("dout")
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint64() != 0xab {
		t.Fatalf("dout = %#x", v.Uint64())
	}
	mv, err := sim.GetMem("mem", 5)
	if err != nil {
		t.Fatal(err)
	}
	if mv.Uint64() != 0xab {
		t.Fatalf("mem[5] = %#x", mv.Uint64())
	}
	// Combinational read tracks the address input.
	set("addr", 4, 3)
	v, _ = sim.Get("dout")
	if v.Uint64() != 0 {
		t.Fatalf("dout at empty address = %#x", v.Uint64())
	}
	if err := sim.SetMem("mem", 3, bitvec.FromUint64(8, 0x11)); err != nil {
		t.Fatal(err)
	}
	v, _ = sim.Get("dout")
	if v.Uint64() != 0x11 {
		t.Fatalf("dout after SetMem = %#x", v.Uint64())
	}
}

// exprSrc exercises the bitwise, comparison, shift, concatenation and
// ternary operators on 8-bit inputs.
const exprSrc = `
module exprs (
  a,
  b,
  y1,
  y2,
  y3,
  y4,
  y5
);
  input [7:0] a;
  input [7:0] b;
  output [7:0] y1;
  output y2;
  output [7:0] y3;
  output [15:0] y4;
  output [7:0] y5;

  assign y1 = ((a & b) | (~a ^ 8'h0f));
  assign y2 = ((a < b) && (a != 8'h00));
  assign y3 = ((a << 2) + (b >> 1));
  assign y4 = {a, b};
  assign y5 = ((a > b) ? a : b);
endmodule
`

func TestExpressionSemantics(t *testing.T) {
	m := parse(t, exprSrc)
	sim, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("a", bitvec.FromUint64(8, 0x36)); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("b", bitvec.FromUint64(8, 0x59)); err != nil {
		t.Fatal(err)
	}
	get := func(name string) uint64 {
		t.Helper()
		v, err := sim.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return v.Uint64()
	}
	a, b := uint64(0x36), uint64(0x59)
	if got := get("y1"); got != ((a&b)|((^a&0xff)^0x0f))&0xff {
		t.Errorf("y1 = %#x", got)
	}
	if got := get("y2"); got != 1 {
		t.Errorf("y2 = %d", got)
	}
	if got := get("y3"); got != ((a<<2)+(b>>1))&0xff {
		t.Errorf("y3 = %#x", got)
	}
	if got := get("y4"); got != a<<8|b {
		t.Errorf("y4 = %#x", got)
	}
	if got := get("y5"); got != b {
		t.Errorf("y5 = %#x", got)
	}
}

// TestParseErrors covers syntax errors. A module that is well-formed text
// but names an undeclared net or slices past a net parses; NewSim rejects
// it (TestElaborationErrors).
func TestParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no module", "wire x;"},
		{"port no dir", "module m (\n a\n);\n wire a;\nendmodule\n"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := verilog.Parse(c.src); err == nil {
				t.Fatal("expected parse error")
			}
		})
	}
}

// TestParseNumbers checks that a malformed or oversized number is an error
// on its line. "truncated literal" used to panic, reading past the end of
// the text, and "depth overflow" used to parse, as a scalar mm: the bound
// 2^64−1 read as the int −1, so the depth −1+1 was 0.
func TestParseNumbers(t *testing.T) {
	head := "module m (\n);\n wire [7:0] y;\n"
	for _, c := range []struct{ name, src, want string }{
		{"truncated literal", head + " assign y = 8'", "verilog line 4"},
		{"depth overflow", "module m (\n);\n reg [7:0] mm [0:18446744073709551615];\nendmodule\n", "verilog line 3"},
		{"decimal overflow", head + " assign y = 18446744073709551616;\nendmodule\n", "verilog line 4"},
		{"hex overflow", head + " assign y = 64'h10000000000000000;\nendmodule\n", "verilog line 4"},
		{"wide literal", head + " assign y = 65'h1;\nendmodule\n", "verilog line 4"},
		{"zero-width literal", head + " assign y = 0'h1;\nendmodule\n", "verilog line 4"},
		{"unknown base", head + " assign y = 8'q1;\nendmodule\n", "verilog line 4"},
		{"bad binary digit", head + " assign y = 4'b102;\nendmodule\n", "verilog line 4"},
		{"select overflow", head + " assign y = {y[7:1],\n y[2147483648]};\nendmodule\n", "verilog line 5"},
		{"hex value too wide", head + " assign y =\n 8'h1ff;\nendmodule\n", "verilog line 5"},
		{"binary value too wide", head + " assign y = 4'b10000;\nendmodule\n", "verilog line 4"},
		{"decimal value too wide", head + " assign y = 8'd256;\nendmodule\n", "verilog line 4"},
	} {
		t.Run(c.name, func(t *testing.T) {
			_, err := verilog.Parse(c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Parse(%q) = %v, want an error on %s", c.src, err, c.want)
			}
		})
	}
}

// TestSizedLiteralLeadingZeros: zero digits beyond a literal's width are
// legal; only a value that needs more bits than the width is an error
// (TestParseNumbers).
func TestSizedLiteralLeadingZeros(t *testing.T) {
	s, err := verilog.NewSim(parse(t, "module m (\n  y\n);\n  output [7:0] y;\n  assign y = 8'h0ff;\nendmodule\n"))
	if err != nil {
		t.Fatal(err)
	}
	if y, err := s.Get("y"); err != nil || y.Uint64() != 0xff {
		t.Fatalf("y = %v (%v), want 8'hff", y, err)
	}
}

// twoDriverSrc drives one net from two continuous assignments.
const twoDriverSrc = `
module m (
  a,
  y
);
  input a;
  output y;
  assign y = a;
  assign y = (!a);
endmodule
`

func TestMultipleDriversRejected(t *testing.T) {
	m := parse(t, twoDriverSrc)
	if _, err := verilog.NewSim(m); err == nil {
		t.Fatal("expected multiple-driver error")
	}
}

func TestCountLines(t *testing.T) {
	if got := verilog.CountLines("a\n\n b \n"); got != 2 {
		t.Fatalf("CountLines = %d", got)
	}
}

// sliceLSrc drives the two halves of a net with part-select assignments.
const sliceLSrc = `
module m (
  a,
  y
);
  input [3:0] a;
  output [7:0] y;
  assign y[3:0] = a;
  assign y[7:4] = (~a);
endmodule
`

func TestSliceLValueAssign(t *testing.T) {
	m := parse(t, sliceLSrc)
	sim, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.SetInput("a", bitvec.FromUint64(4, 0x6)); err != nil {
		t.Fatal(err)
	}
	v, err := sim.Get("y")
	if err != nil {
		t.Fatal(err)
	}
	if v.Uint64() != 0x96 {
		t.Fatalf("y = %#x, want 0x96", v.Uint64())
	}
}

func TestEmitIsValidSubset(t *testing.T) {
	m := parse(t, memSrc)
	text := verilog.Emit(m)
	for _, want := range []string{"module memdut", "reg [7:0] mem [0:15];", "always @(posedge clk)", "endmodule"} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted text missing %q:\n%s", want, text)
		}
	}
}

const blockingSrc = `
module swap (
  clk,
  a,
  b
);
  input clk;
  output [7:0] a;
  output [7:0] b;

  reg [7:0] a;
  reg [7:0] b;
  reg [7:0] ta;
  reg [7:0] tb;

  always @(posedge clk) begin
    ta = b;
    tb = a;
    a = (ta + 8'h01);
    b = tb;
  end
endmodule
`

// TestBlockingAssign checks the read-into-temps-then-write idiom the
// generated processor models rely on: blocking assignments sequence within
// the block, so a and b swap (with an increment) every cycle.
func TestBlockingAssign(t *testing.T) {
	m := parse(t, blockingSrc)
	sim, err := verilog.NewSim(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Tick("clk"); err != nil { // a=1, b=0
		t.Fatal(err)
	}
	if err := sim.Tick("clk"); err != nil { // a=0+1=1, b=1
		t.Fatal(err)
	}
	if err := sim.Tick("clk"); err != nil { // a=1+1=2, b=1
		t.Fatal(err)
	}
	av, _ := sim.Get("a")
	bv, _ := sim.Get("b")
	if av.Uint64() != 2 || bv.Uint64() != 1 {
		t.Fatalf("a=%d b=%d, want 2 1", av.Uint64(), bv.Uint64())
	}
	// Round trip through the emitter.
	text := verilog.Emit(m)
	if !strings.Contains(text, "ta = b;") {
		t.Fatalf("blocking assign not emitted:\n%s", text)
	}
	if _, err := verilog.Parse(text); err != nil {
		t.Fatal(err)
	}
}
