package compiler_test

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// compileAndRun compiles a kernel for the machine, assembles the output and
// runs it to completion.
func compileAndRun(t *testing.T, d *isdl.Description, src string) (*xsim.Simulator, string) {
	t.Helper()
	asmText, err := compiler.Compile(d, src)
	if err != nil {
		t.Fatalf("compile for %s: %v", d.Name, err)
	}
	p, err := asm.Assemble(d, asmText)
	if err != nil {
		t.Fatalf("generated assembly does not assemble: %v\n%s", err, asmText)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1_000_000); err != nil {
		t.Fatalf("run: %v\n%s", err, asmText)
	}
	if !sim.Halted() {
		t.Fatalf("compiled program did not halt\n%s", asmText)
	}
	return sim, asmText
}

// varReg finds the register assigned to the i-th declared variable
// (allocation is top-down, so variable 0 lives in the highest register).
func varValue(sim *xsim.Simulator, rfDepth, i int) uint64 {
	return sim.State().Get("RF", rfDepth-1-i).Uint64()
}

func targets(t *testing.T) []*isdl.Description {
	t.Helper()
	return []*isdl.Description{machines.Toy(), machines.SPAM(), machines.SPAM2()}
}

func TestCompileArithmetic(t *testing.T) {
	src := `
var x, y, z;
x = 7;
y = x + 5;
z = y - x + (x & 6);
`
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 0); got != 7 {
				t.Errorf("x = %d", got)
			}
			if got := varValue(sim, depth, 1); got != 12 {
				t.Errorf("y = %d", got)
			}
			if got := varValue(sim, depth, 2); got != 11 { // 5 + (7&6)=6
				t.Errorf("z = %d", got)
			}
		})
	}
}

func TestCompileControlFlow(t *testing.T) {
	src := `
var i, s;
s = 0;
for i = 1 to 10 { s = s + i; }
if (s == 55) { s = s + 100; } else { s = 0; }
while (i > 5) { i = i - 2; }
`
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 1); got != 155 {
				t.Errorf("s = %d, want 155", got)
			}
			// i leaves the for loop at 11, then drops by 2 to 5 or below.
			if got := varValue(sim, depth, 0); got != 5 {
				t.Errorf("i = %d, want 5", got)
			}
		})
	}
}

func TestCompileComparisons(t *testing.T) {
	src := `
var a, b, r;
a = 3; b = 9; r = 0;
if (a < b)  { r = r + 1; }
if (b < a)  { r = r + 10; }
if (a <= 3) { r = r + 2; }
if (a >= 3) { r = r + 4; }
if (a != b) { r = r + 8; }
if (a > b)  { r = r + 20; }
`
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 2); got != 15 {
				t.Errorf("r = %d, want 15", got)
			}
		})
	}
}

func TestCompileNegativeCompare(t *testing.T) {
	src := `
var a, r;
a = 0 - 5;
r = 0;
if (a < 3) { r = 1; }
`
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 1); got != 1 {
				t.Errorf("r = %d: -5 < 3 should hold", got)
			}
		})
	}
}

func arrayStorageFor(d *isdl.Description) string {
	switch d.Name {
	case "toy":
		return "DMEM"
	case "spam":
		return "DMX"
	default:
		return "DM"
	}
}

func TestCompileArrays(t *testing.T) {
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			mem := arrayStorageFor(d)
			src := `
var i, s;
array a[8] in ` + mem + ` at 4 = { 3, 1, 4, 1, 5, 9, 2, 6 };
array b[8] in ` + mem + ` at 16;
s = 0;
for i = 0 to 7 {
  b[i] = a[i] + 1;
  s = s + a[i];
}
`
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 1); got != 31 {
				t.Errorf("s = %d, want 31", got)
			}
			want := []uint64{4, 2, 5, 2, 6, 10, 3, 7}
			for i, w := range want {
				if got := sim.State().Get(mem, 16+i).Uint64(); got != w {
					t.Errorf("b[%d] = %d, want %d", i, got, w)
				}
			}
		})
	}
}

// TestCompileSpill forces more variables than the toy register file holds.
func TestCompileSpill(t *testing.T) {
	src := `
var v0, v1, v2, v3, v4, v5, v6, v7, v8, v9;
v0 = 1; v1 = 2; v2 = 3; v3 = 4; v4 = 5;
v5 = 6; v6 = 7; v7 = 8; v8 = 9; v9 = 10;
v0 = v8 + v9;
v9 = v0 + v1;
`
	d := machines.Toy()
	sim, asmText := compileAndRun(t, d, src)
	if !strings.Contains(asmText, ".data DMEM") {
		t.Fatalf("expected spill slots in DMEM:\n%s", asmText)
	}
	// v0 lives in the highest register; v9 is spilled. Verify v0 = 19 and
	// the spilled v9 = 21 via the whole-machine effect: reload it.
	depth := d.StorageByName["RF"].Depth
	if got := varValue(sim, depth, 0); got != 19 {
		t.Errorf("v0 = %d, want 19", got)
	}
	// The spill slot for v9 sits in DMEM near the top; find value 21.
	found := false
	st := d.StorageByName["DMEM"]
	for i := st.Depth - 16; i < st.Depth; i++ {
		if sim.State().Get("DMEM", i).Uint64() == 21 {
			found = true
		}
	}
	if !found {
		t.Error("spilled v9 = 21 not found in spill area")
	}
}

// TestCompileSpillSkipsArrays puts an array at the top of the spill memory:
// the spill slots must go below it instead of overwriting its elements.
func TestCompileSpillSkipsArrays(t *testing.T) {
	src := `
array out[4] in DMEM at 252 = {11, 22, 33, 44};
var v1 = 1, v2 = 2, v3 = 3, v4 = 4, v5 = 5, v6 = 6;
v1 = v1 + v2;
v3 = v3 + v4;
out[0] = v5 + v6;
`
	d := machines.Toy()
	sim, asmText := compileAndRun(t, d, src)
	for i, want := range []uint64{11, 22, 33, 44} {
		if got := sim.State().Get("DMEM", 252+i).Uint64(); got != want {
			t.Errorf("out[%d] = %d, want %d\n%s", i, got, want, asmText)
		}
	}
	if !strings.Contains(asmText, ".data DMEM 251 5") || !strings.Contains(asmText, ".data DMEM 250 6") {
		t.Errorf("want v5 and v6 spilled just below the array:\n%s", asmText)
	}

	// With the whole memory taken by arrays no spill slot is left.
	full := strings.Replace(src, "out[4] in DMEM at 252", "out[256] in DMEM at 0", 1)
	if _, err := compiler.Compile(d, full); err == nil || !strings.Contains(err.Error(), "variable v5") {
		t.Errorf("err = %v, want no spill slot left for v5", err)
	}
}

// TestCompileMulWhereAvailable uses * on machines with a multiplier pattern
// (toy has mul; SPAM's MAC writes ACC, not RF, so it is not classified).
func TestCompileMulWhereAvailable(t *testing.T) {
	src := `
var x;
x = 6 * 7;
`
	d := machines.Toy()
	sim, _ := compileAndRun(t, d, src)
	depth := d.StorageByName["RF"].Depth
	if got := varValue(sim, depth, 0); got != 42 {
		t.Errorf("x = %d, want 42", got)
	}
}

// TestVLIWPacking: on SPAM the scheduler should pack independent operations
// into one long instruction at least once.
func TestVLIWPacking(t *testing.T) {
	src := `
var a, b, c, d;
a = 1;
b = 2;
c = a + 3;
d = b - 1;
`
	d := machines.SPAM()
	_, asmText := compileAndRun(t, d, src)
	if !strings.Contains(asmText, "||") {
		t.Errorf("no VLIW packing on SPAM:\n%s", asmText)
	}
}

// TestSchedulingPreservesOrder: dependent chains must not pack together.
func TestSchedulingPreservesOrder(t *testing.T) {
	src := `
var a, b;
a = 1;
b = a + 1;
a = b + 1;
b = a + 1;
`
	for _, d := range targets(t) {
		t.Run(d.Name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			if got := varValue(sim, depth, 0); got != 3 {
				t.Errorf("a = %d, want 3", got)
			}
			if got := varValue(sim, depth, 1); got != 4 {
				t.Errorf("b = %d, want 4", got)
			}
		})
	}
}

// TestBigConstants exercises constant construction beyond the immediate
// field on the 32-bit machines.
func TestBigConstants(t *testing.T) {
	src := `
var x, y;
x = 100000;
y = x + 23456;
`
	for _, name := range []string{"spam", "spam2"} {
		var d *isdl.Description
		if name == "spam" {
			d = machines.SPAM()
		} else {
			d = machines.SPAM2()
		}
		t.Run(name, func(t *testing.T) {
			sim, _ := compileAndRun(t, d, src)
			depth := d.StorageByName["RF"].Depth
			mask := uint64(1)<<uint(d.StorageByName["RF"].Width) - 1
			if got := varValue(sim, depth, 0); got != 100000&mask {
				t.Errorf("x = %d, want %d", got, 100000&mask)
			}
			if got := varValue(sim, depth, 1); got != 123456&mask {
				t.Errorf("y = %d, want %d", got, 123456&mask)
			}
		})
	}
}

func TestKernelParseErrors(t *testing.T) {
	cases := []struct{ name, src string }{
		{"missing semi", "var x\nx = 1;"},
		{"bad stmt", "var x; x + 1;"},
		{"unterminated block", "var x; if (x == 0) { x = 1;"},
		{"bad cond", "var x; if (x) { }"},
		{"bad array init", "array a[2] in DM at 0 = { 1, 2, 3 };"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := compiler.ParseKernel(c.src); err == nil {
				t.Fatal("expected parse error")
			}
		})
	}
}

func TestCompileErrors(t *testing.T) {
	d := machines.SPAM2()
	cases := []struct{ name, src, want string }{
		{"undeclared var", "x = 1;", "undeclared variable"},
		{"undeclared array", "var x; x = a[0];", "undeclared array"},
		{"bad storage", "array a[4] in NOPE at 0; var x; x = a[0];", "not addressed"},
		{"array too big", "array a[9999] in DM at 0; var x; x = a[0];", "exceeds"},
		{"dup var", "var x; var x;", "duplicate variable"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := compiler.Compile(d, c.src)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestTargetClassification(t *testing.T) {
	for _, d := range targets(t) {
		tgt, err := compiler.NewTarget(d)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if tgt.RF.Name != "RF" {
			t.Errorf("%s: chose register file %s", d.Name, tgt.RF.Name)
		}
		if len(tgt.Bins["+"]) == 0 || len(tgt.Bins["-"]) == 0 || len(tgt.Bins["&"]) == 0 {
			t.Errorf("%s: ALU classification incomplete: %v", d.Name, tgt.Bins)
		}
		if tgt.Jump == nil || tgt.Halt == nil || len(tgt.Branches) == 0 {
			t.Errorf("%s: control classification incomplete", d.Name)
		}
		if len(tgt.Loads) == 0 || len(tgt.Stores) == 0 {
			t.Errorf("%s: memory classification incomplete", d.Name)
		}
	}
}

// TestCompileRISC32 exercises the register+offset addressing classification
// (lw/sw with an offset field) and the RISC branch repertoire end to end.
func TestCompileRISC32(t *testing.T) {
	d := machines.RISC32()
	src := `
var i, s, hits;
array a[16] in DMEM at 8 = { 12, 7, 3, 25, 14, 9, 31, 2, 18, 6, 11, 27, 4, 15, 22, 8 };
s = 0;
hits = 0;
for i = 0 to 15 {
  s = s + a[i];
  if (a[i] > 13) { hits = hits + 1; }
}
`
	sim, asmText := compileAndRun(t, d, src)
	if !strings.Contains(asmText, "lw") || !strings.Contains(asmText, "0(") {
		t.Fatalf("expected offset loads in generated code:\n%s", asmText)
	}
	depth := d.StorageByName["RF"].Depth
	if got := varValue(sim, depth, 1); got != 214 {
		t.Errorf("s = %d, want 214", got)
	}
	if got := varValue(sim, depth, 2); got != 7 {
		t.Errorf("hits = %d, want 7", got)
	}
}

// TestCompileRISC32BigConstants: li covers 16 bits; larger constants build
// through shifts.
func TestCompileRISC32BigConstants(t *testing.T) {
	d := machines.RISC32()
	sim, _ := compileAndRun(t, d, "var x; x = 1000000;")
	depth := d.StorageByName["RF"].Depth
	if got := varValue(sim, depth, 0); got != 1000000 {
		t.Errorf("x = %d", got)
	}
}

// TestPackingDifferential is the scheduler's correctness test: for every
// machine and kernel, the VLIW-packed program and the one-operation-per-
// instruction program must leave identical architectural state (packing may
// only change timing, never results).
func TestPackingDifferential(t *testing.T) {
	kernels := []string{
		"var a, b, c, d; a = 1; b = 2; c = a + 3; d = b - 1; a = c + d;",
		`
var i, s, t;
s = 0; t = 1;
for i = 0 to 9 { s = s + i; t = t + s; }
if (s > t) { s = t; } else { t = s; }
`,
	}
	all := append(targets(t), machines.RISC32())
	for _, d := range all {
		for ki, kernel := range kernels {
			packed, err := compiler.CompileWithOptions(d, kernel, compiler.Options{})
			if err != nil {
				t.Fatalf("%s kernel %d: %v", d.Name, ki, err)
			}
			serial, err := compiler.CompileWithOptions(d, kernel, compiler.Options{NoPacking: true})
			if err != nil {
				t.Fatalf("%s kernel %d: %v", d.Name, ki, err)
			}
			run := func(src string) map[string][]uint64 {
				p, err := asm.Assemble(d, src)
				if err != nil {
					t.Fatalf("%s kernel %d: %v\n%s", d.Name, ki, err, src)
				}
				sim := xsim.New(d)
				if err := sim.Load(p); err != nil {
					t.Fatal(err)
				}
				if err := sim.Run(1_000_000); err != nil {
					t.Fatal(err)
				}
				out := map[string][]uint64{}
				rf := d.StorageByName["RF"]
				regs := make([]uint64, rf.Depth)
				for i := range regs {
					regs[i] = sim.State().Get("RF", i).Uint64()
				}
				out["RF"] = regs
				return out
			}
			a, b := run(packed), run(serial)
			for i := range a["RF"] {
				if a["RF"][i] != b["RF"][i] {
					t.Fatalf("%s kernel %d: RF[%d] differs: packed %d vs serial %d\npacked:\n%s\nserial:\n%s",
						d.Name, ki, i, a["RF"][i], b["RF"][i], packed, serial)
				}
			}
		}
	}
}
