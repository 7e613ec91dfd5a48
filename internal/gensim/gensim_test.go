package gensim_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/gensim"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/randmachine"
	"repro/internal/xsim"
)

// TestMain points the build cache at a scratch dir so test runs
// don't pollute the user cache but still reuse binaries across tests, and
// removes it afterwards (os.Exit skips deferred calls).
func TestMain(m *testing.M) {
	dir := ""
	if os.Getenv("REPRO_GENSIM_CACHE") == "" {
		if d, err := os.MkdirTemp("", "gensim-test-cache-*"); err == nil {
			dir = d
			os.Setenv("REPRO_GENSIM_CACHE", dir)
		}
	}
	code := m.Run()
	if dir != "" {
		os.RemoveAll(dir)
	}
	os.Exit(code)
}

func mustAOT(t *testing.T, d *isdl.Description) *gensim.Engine {
	t.Helper()
	eng, err := gensim.NewEngineFor(d)
	if err != nil {
		t.Fatalf("aot engine: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// runAll loads and runs the same program on the aot engine and the
// in-process interpreter, then checks final storage state, statistics,
// cycle count and fault text are identical across both.
func runAll(t *testing.T, d *isdl.Description, p *asm.Program, limit int64) {
	t.Helper()
	aot := mustAOT(t, d)
	interp := xsim.New(d)
	for _, e := range []xsim.Engine{aot, interp} {
		if err := e.Load(p); err != nil {
			t.Fatalf("load: %v", err)
		}
	}
	aotErr, interpErr := aot.Run(limit), interp.Run(limit)
	if (interpErr == nil) != (aotErr == nil) {
		t.Fatalf("run error mismatch: aot=%v interp=%v", aotErr, interpErr)
	}
	if aotErr != nil && aotErr.Error() != interpErr.Error() {
		t.Fatalf("fault text mismatch:\naot:    %s\ninterp: %s", aotErr, interpErr)
	}
	if interp.Halted() != aot.Halted() {
		t.Fatalf("halted mismatch: aot=%v interp=%v", aot.Halted(), interp.Halted())
	}
	if interp.Cycle() != aot.Cycle() {
		t.Fatalf("cycle mismatch: aot=%d interp=%d", aot.Cycle(), interp.Cycle())
	}
	compareStats(t, "interp", interp.Stats(), aot.Stats())
	compareSnapshots(t, "interp", interp.Snapshot(), aot.Snapshot())
}

func compareStats(t *testing.T, name string, want, got xsim.Stats) {
	t.Helper()
	if want.Cycles != got.Cycles || want.Instructions != got.Instructions ||
		want.DataStalls != got.DataStalls || want.StructStalls != got.StructStalls ||
		want.Reads != got.Reads || want.Writes != got.Writes {
		t.Fatalf("stats mismatch vs %s:\nwant %+v\ngot  %+v", name, want, got)
	}
	if len(want.OpCounts) != len(got.OpCounts) {
		t.Fatalf("op count keys mismatch vs %s: want %v got %v", name, want.OpCounts, got.OpCounts)
	}
	for k, v := range want.OpCounts {
		if got.OpCounts[k] != v {
			t.Fatalf("op count %s mismatch vs %s: want %d got %d", k, name, v, got.OpCounts[k])
		}
	}
	if len(want.FieldIssue) != len(got.FieldIssue) {
		t.Fatalf("field issue length mismatch vs %s", name)
	}
	for i, v := range want.FieldIssue {
		if got.FieldIssue[i] != v {
			t.Fatalf("field %d issue mismatch vs %s: want %d got %d", i, name, v, got.FieldIssue[i])
		}
	}
}

func compareSnapshots(t *testing.T, name string, want, got map[string][]bitvec.Value) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("snapshot storage sets differ vs %s: want %d got %d", name, len(want), len(got))
	}
	for st, wv := range want {
		gv, ok := got[st]
		if !ok {
			t.Fatalf("snapshot missing storage %s (vs %s)", st, name)
		}
		if len(wv) != len(gv) {
			t.Fatalf("snapshot %s depth mismatch vs %s: want %d got %d", st, name, len(wv), len(gv))
		}
		for i := range wv {
			if !wv[i].Eq(gv[i]) {
				t.Fatalf("snapshot %s[%d] mismatch vs %s: want %s got %s", st, i, name, wv[i], gv[i])
			}
		}
	}
}

func TestAOTEquivalenceToy(t *testing.T) {
	d := machines.Toy()
	for name, src := range map[string]string{
		"arith": `
    mv R1, #5
    mv R2, #3
    add R3, R1, R2
    sub R4, R1, #7
    and R5, R3, #12
    mul R6, R2, #10
    halt`,
		"memory": `
    mv R1, #42
    mv R3, #7
    st @R3, R1
    ld R2, @R3
    add R4, R2, #1
    halt`,
		"control": `
    mv R1, #0
    mv R2, #5
loop:
    add R1, R1, #1
    sub R2, R2, #1
    beq R2, R0, done
    jmp loop
done:
    halt`,
		"stack": `
    mv R1, #9
    push R1
    call fn
    pop R3
    halt
fn:
    pop R2
    push R2
    mv R3, #9
    ret`,
		"mmio": `
    mv R1, #7
    out 241, R1
    halt`,
		"stall": `
    mv R1, #4
    mul R2, R1, #3
    add R3, R2, #1
    mv R6, #0
    ld R4, @R6
    add R5, R4, R3
    halt`,
	} {
		t.Run(name, func(t *testing.T) {
			p, err := asm.Assemble(d, src)
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, d, p, 100000)
		})
	}
}

func TestAOTEquivalenceToyFaults(t *testing.T) {
	d := machines.Toy()
	for name, src := range map[string]string{
		"stack overflow":  "loop:\n push R0\n jmp loop",
		"stack underflow": "pop R1\n halt",
		"illegal":         ".word 0xe00000",
	} {
		t.Run(name, func(t *testing.T) {
			p, err := asm.Assemble(d, src)
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, d, p, 1000)
		})
	}
}

// TestAOTEquivalenceSPAM runs the paper's kernels on both SPAM variants:
// 96-bit instruction words exercise the multi-word image fetch path.
func TestAOTEquivalenceSPAM(t *testing.T) {
	spam := machines.SPAM()
	spam2 := machines.SPAM2()
	s, c := machines.FIRTestVectors(8, 8)
	x, y := machines.VecTestVectors(8)
	for _, tc := range []struct {
		name string
		d    *isdl.Description
		src  string
	}{
		{"fir", spam, machines.FIRSPAM(8, 8, s, c)},
		{"dot", spam, machines.DotSPAM(8, x, y)},
		{"vecadd", spam2, machines.VecAddSPAM2(8, x, y)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := asm.Assemble(tc.d, tc.src)
			if err != nil {
				t.Fatal(err)
			}
			runAll(t, tc.d, p, 1000000)
		})
	}
}

// TestAOTDifferentialRandom is the gauntlet: random machines x random
// programs, aot vs the in-process interpreter, bit-identical
// state and statistics under fixed seeds.
func TestAOTDifferentialRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("differential gauntlet is slow")
	}
	rnd := rand.New(rand.NewSource(7))
	trials := 6
	for trial := 0; trial < trials; trial++ {
		m := randmachine.Generate(rnd, randmachine.Config{})
		d, err := isdl.Parse(m.Source)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for prog := 0; prog < 3; prog++ {
			src := m.RandomProgram(rnd, 24)
			p, err := asm.Assemble(d, src)
			if err != nil {
				t.Fatalf("trial %d prog %d: %v", trial, prog, err)
			}
			t.Run(fmt.Sprintf("m%d_p%d", trial, prog), func(t *testing.T) {
				runAll(t, d, p, 2000)
			})
		}
	}
}

// TestAOTRunContinuation checks Run(limit) continuation: stepping in chunks
// lands on the same state as one long run, and Snapshot and Stats match the
// interpreter before any Load, right after Load, after every chunk and
// after loading the program again.
func TestAOTRunContinuation(t *testing.T) {
	d := machines.Toy()
	src := `
    mv R1, #0
loop:
    add R1, R1, #1
    sub R2, R1, #10
    beq R2, R0, done
    jmp loop
done:
    halt`
	p, err := asm.Assemble(d, src)
	if err != nil {
		t.Fatal(err)
	}
	aot := mustAOT(t, d)
	ref := xsim.New(d)
	same := func(when string) {
		t.Helper()
		compareStats(t, "interp "+when, ref.Stats(), aot.Stats())
		compareSnapshots(t, "interp "+when, ref.Snapshot(), aot.Snapshot())
	}
	same("before Load")
	if err := aot.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(p); err != nil {
		t.Fatal(err)
	}
	same("after Load")
	for !aot.Halted() {
		if err := aot.Run(3); err != nil {
			t.Fatal(err)
		}
		if err := ref.Run(3); err != nil {
			t.Fatal(err)
		}
		if aot.Cycle() != ref.Cycle() {
			t.Fatalf("cycle diverged mid-run: aot=%d ref=%d", aot.Cycle(), ref.Cycle())
		}
		same(fmt.Sprintf("at cycle %d", ref.Cycle()))
	}
	if !ref.Halted() {
		t.Fatal("reference did not halt in lockstep")
	}
	if err := aot.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(p); err != nil {
		t.Fatal(err)
	}
	same("after a second Load")
}

// TestLoadErrorParity: both engines reject the same malformed programs
// with the same text. The aot child is the only validator on its side.
func TestLoadErrorParity(t *testing.T) {
	d := machines.Toy()
	word := bitvec.New(d.InstructionMemory().Width)
	byte8 := bitvec.New(8)
	for name, p := range map[string]*asm.Program{
		"image beyond IMEM": {Desc: d, Base: 255, Words: []bitvec.Value{word, word}},
		"data beyond DMEM": {Desc: d, Words: []bitvec.Value{word},
			Data: []asm.DataInit{{Storage: "DMEM", Base: 250, Values: make([]bitvec.Value, 8)}}},
		"unknown storage": {Desc: d, Words: []bitvec.Value{word},
			Data: []asm.DataInit{{Storage: "DMX", Values: []bitvec.Value{byte8}}}},
	} {
		t.Run(name, func(t *testing.T) {
			interpErr := xsim.New(d).Load(p)
			aotErr := mustAOT(t, d).Load(p)
			if interpErr == nil || aotErr == nil || interpErr.Error() != aotErr.Error() {
				t.Fatalf("Load errors differ:\naot:    %v\ninterp: %v", aotErr, interpErr)
			}
		})
	}
}

// TestAOTStatsSnapshot: an aot Stats snapshot owns its map and slice, so
// loading and running another program with a different operation mix on
// the same engine leaves it exactly as it was.
func TestAOTStatsSnapshot(t *testing.T) {
	d := machines.Toy()
	eng, info, err := xsim.NewEngine(d, xsim.BackendAOT)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if info.Used != xsim.BackendAOT {
		t.Skipf("aot backend unavailable: %s", info.FallbackReason)
	}
	run := func(src string) (snap, cp xsim.Stats) {
		t.Helper()
		p, err := asm.Assemble(d, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(1000); err != nil || !eng.Halted() {
			t.Fatalf("run: err %v, halted %v", err, eng.Halted())
		}
		snap = eng.Stats()
		cp = snap
		cp.OpCounts = maps.Clone(snap.OpCounts)
		cp.FieldIssue = slices.Clone(snap.FieldIssue)
		return snap, cp
	}
	snap, want := run("mv R1, #5\n mv R2, #3\n add R3, R1, R2\n halt")
	if got, _ := run("mv R1, #0\nloop: add R1, R1, #1\n sub R2, R1, #4\n beq R2, R0, done\n jmp loop\ndone: halt"); reflect.DeepEqual(got, want) {
		t.Fatal("both programs gave equal statistics; the test needs different operation mixes")
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("Stats snapshot changed under a later Load/Run:\nnow  %+v\nwant %+v", snap, want)
	}
}

// TestFallbackWhenDisabled: with the backend disabled the engine falls
// back to the interpreter and reports why.
func TestFallbackWhenDisabled(t *testing.T) {
	t.Setenv("REPRO_GENSIM_DISABLE", "1")
	if _, err := gensim.Build(machines.Toy()); !errors.Is(err, gensim.ErrUnavailable) {
		t.Fatalf("Build = %v, want ErrUnavailable", err)
	}
	eng, info, err := xsim.NewEngine(machines.Toy(), xsim.BackendAOT)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if info.Used != xsim.BackendInterp {
		t.Fatalf("Used = %s, want interp fallback", info.Used)
	}
	if info.FallbackReason == "" {
		t.Fatal("fallback reason empty")
	}
	if _, ok := eng.(*xsim.Simulator); !ok {
		t.Fatalf("fallback engine is %T, want *xsim.Simulator", eng)
	}
}

// TestUnsupportedDescriptionFallsBack: RTL over a >64-bit storage is
// outside the compilable subset — generation refuses, NewEngine falls back.
func TestUnsupportedDescriptionFallsBack(t *testing.T) {
	src := `
Machine wide;
Format 8;
Section Global_Definitions
Section Storage
InstructionMemory IMEM width 8 depth 32;
Register ACC width 96;
ControlRegister HLT width 1;
ProgramCounter PC width 5;
Section Instruction_Set
Field F:
  op inc
    Encode { I[7:4] = 0x1; }
    Action { ACC <- ACC + 1; }
  op halt
    Encode { I[7:4] = 0x2; }
    Action { HLT <- 0b1; }
`
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	_, genErr := gensim.Generate(d)
	if !gensim.IsUnsupported(genErr) {
		t.Fatalf("Generate = %v, want UnsupportedError", genErr)
	}
	eng, info, err := xsim.NewEngine(d, xsim.BackendAOT)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if info.Used != xsim.BackendInterp || info.FallbackReason == "" {
		t.Fatalf("info = %+v, want interp fallback with reason", info)
	}
}

// TestBuildCache: the second build of the same description is a cache hit
// serving the same binary.
func TestBuildCache(t *testing.T) {
	t.Setenv("REPRO_GENSIM_CACHE", t.TempDir())
	d := machines.Toy()
	br1, err := gensim.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if br1.CacheHit {
		t.Fatal("first build reported a cache hit")
	}
	br2, err := gensim.Build(d)
	if err != nil {
		t.Fatal(err)
	}
	if !br2.CacheHit {
		t.Fatal("second build missed the cache")
	}
	if br1.Bin != br2.Bin {
		t.Fatalf("cache returned a different binary: %s vs %s", br1.Bin, br2.Bin)
	}
	if _, err := os.Stat(filepath.Join(br1.Dir, "main.go")); err != nil {
		t.Fatalf("cache entry is missing the generated source: %v", err)
	}
}

// TestFingerprintSensitivity: different descriptions get different cache
// keys; identical descriptions share one.
func TestFingerprintSensitivity(t *testing.T) {
	a := gensim.Fingerprint(machines.Toy())
	b := gensim.Fingerprint(machines.Toy())
	c := gensim.Fingerprint(machines.SPAM())
	if a != b {
		t.Fatal("fingerprint not deterministic")
	}
	if a == c {
		t.Fatal("distinct machines share a fingerprint")
	}
}
