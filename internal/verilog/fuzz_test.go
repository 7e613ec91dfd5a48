package verilog_test

import (
	"strings"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/hgen"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/verilog"
)

// selSrc reads a memory and a net through bare-decimal selects, which the
// parser cannot tell apart: mem[3] and mem[11] (11 wraps to 3 in a memory
// eight words deep) are word reads, bus[3] is a bit-select.
const selSrc = `
module sel (
  bus,
  w,
  b,
  k
);
  input [7:0] bus;
  output [7:0] w;
  output b;
  output [7:0] k;

  reg [7:0] mem [0:7];

  assign w = mem[3];
  assign b = bus[3];
  assign k = (mem[3] + mem[11]);
endmodule
`

// TestBareDecimalSelect checks that a bare-decimal select of a memory
// reads that word and follows it when the word changes, that the same
// select of a net reads one bit, and that a part-select of a memory is
// rejected.
func TestBareDecimalSelect(t *testing.T) {
	sim, err := verilog.NewSim(parse(t, selSrc))
	if err != nil {
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
	if err := sim.SetMem("mem", 3, bitvec.FromUint64(8, 0xa5)); err != nil {
		t.Fatal(err)
	}
	if err := sim.SetMem("mem", 2, bitvec.FromUint64(8, 0x11)); err != nil {
		t.Fatal(err)
	}
	if w, k := get("w"), get("k"); w != 0xa5 || k != 0x4a {
		t.Errorf("w = %#x, k = %#x, want 0xa5 and 0x4a (word 3 twice)", w, k)
	}
	for _, c := range []struct{ bus, b uint64 }{{0x08, 1}, {0xf7, 0}} {
		if err := sim.SetInput("bus", bitvec.FromUint64(8, c.bus)); err != nil {
			t.Fatal(err)
		}
		if b := get("b"); b != c.b {
			t.Errorf("bus = %#x: b = %d, want %d", c.bus, b, c.b)
		}
	}

	m, err := verilog.Parse(strings.Replace(selSrc, "mem[3];", "mem[3:2];", 1))
	if err == nil {
		_, err = verilog.NewSim(m)
	}
	if err == nil || !strings.Contains(err.Error(), "part-select of memory mem") {
		t.Fatalf("mem[3:2]: error %v, want a part-select of memory mem", err)
	}
}

// zooVerilog synthesizes each zoo machine with Verilog output, by name.
func zooVerilog(tb testing.TB) map[string]*hgen.Result {
	tb.Helper()
	out := map[string]*hgen.Result{}
	for _, z := range machines.Zoo() {
		r, err := hgen.Synthesize(z.Parse(), tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			tb.Fatalf("%s: %v", z.Name, err)
		}
		out[z.Name] = r
	}
	return out
}

// TestElaborationKeepsModule pins that NewSim only reads its module, which
// cosim and the benchmark share across concurrent NewSim calls: the module
// writes the same text before and after elaboration, and HGEN's gate,
// which elaborates the module it keeps, leaves it as a fresh parse.
func TestElaborationKeepsModule(t *testing.T) {
	srcs := map[string]string{"sel": selSrc}
	kept := map[string]*verilog.Module{}
	for name, r := range zooVerilog(t) {
		srcs[name] = r.VerilogText
		kept[name] = r.Module
	}
	for name, src := range srcs {
		m := parse(t, src)
		before := verilog.Emit(m)
		if _, err := verilog.NewSim(m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if after := verilog.Emit(m); after != before {
			t.Errorf("%s: NewSim changed the module:\n%s\n--- after:\n%s", name, before, after)
		}
		if k, ok := kept[name]; ok && verilog.Emit(k) != before {
			t.Errorf("%s: HGEN's kept module differs from a fresh parse", name)
		}
	}
}

// FuzzElaborate checks the Verilog boundary: whatever the text, Parse,
// NewSim and eight clock ticks return errors and never panic. Seeded with
// HGEN's Verilog for the zoo and the package's test modules;
// testdata/fuzz/FuzzElaborate holds the inputs it has failed on.
func FuzzElaborate(f *testing.F) {
	zoo := zooVerilog(f)
	for _, name := range machines.ZooNames() {
		f.Add(zoo[name].VerilogText)
	}
	for _, src := range []string{counterSrc, memSrc, blockingSrc, exprSrc, twoDriverSrc, sliceLSrc, decodeSrc, nbSliceSrc, wrapSrc, selSrc} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := verilog.Parse(src)
		if err != nil || tooBig(m) {
			return
		}
		sim, err := verilog.NewSim(m)
		if err != nil {
			return
		}
		for i := 0; i < 8; i++ {
			if sim.Tick("clk") != nil {
				return
			}
		}
	})
}

// tooBig reports whether m declares more than 2^20 bits in all, or a net
// wider than 4096 bits. NewSim allocates what a module declares, so the
// fuzzer skips such inputs rather than exhaust memory. SPAM's model, the
// zoo's largest, declares 166,166 bits, and its widest net is 96 bits.
func tooBig(m *verilog.Module) bool {
	const maxNet, maxTotal = 4096, 1 << 20
	total := 0
	over := func(width, depth int) bool {
		total += width * max(depth, 1)
		return width > maxNet || total > maxTotal
	}
	for _, p := range m.Ports {
		if over(p.Width, 0) {
			return true
		}
	}
	for _, n := range m.Nets {
		if over(n.Width, n.Depth) {
			return true
		}
	}
	return false
}
