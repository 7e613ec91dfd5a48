package xsim_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/machines"
	"repro/internal/xsim"
)

// TestReloadReproducesRun: Load must fully reset the machine — dense decode
// cache, op counters, statistics — so re-running the same program yields
// identical cycle counts and statistics.
func TestReloadReproducesRun(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, `
    mv R1, #5
    mv R2, #3
    add R3, R1, R2
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	run := func() (uint64, uint64, uint64) {
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		st := sim.Stats()
		return sim.Cycle(), st.Instructions, st.OpCounts["main.add"]
	}
	c1, i1, a1 := run()
	for n := 0; n < 3; n++ {
		c2, i2, a2 := run()
		if c1 != c2 || i1 != i2 || a1 != a2 {
			t.Fatalf("reload run %d differs: (%d,%d,%d) vs (%d,%d,%d)", n, c1, i1, a1, c2, i2, a2)
		}
	}
}

// TestLoadKeepsDecodeCacheForSameImage: reloading an identical program
// image keeps the dense decode entries (no fetch decodes afresh); a
// different image drops them, so its own instructions decode and run.
func TestLoadKeepsDecodeCacheForSameImage(t *testing.T) {
	d := machines.Toy()
	sim := xsim.New(d)
	run := func(src string) uint64 {
		t.Helper()
		p, err := asm.Assemble(d, src)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		return sim.Perf().DecodeMisses
	}
	const prog = "mv R1, #5\n mv R2, #3\n add R3, R1, R2\n halt"
	first := run(prog)
	if got := run(prog); got != first {
		t.Errorf("reload with identical image re-decoded %d instructions", got-first)
	}
	if got := run("mv R1, #7\n halt"); got != first+2 {
		t.Errorf("reload with different image decoded %d instructions, want 2", got-first)
	}
	if got := reg(t, sim, 1); got != 7 {
		t.Errorf("after reload R1 = %d, want 7", got)
	}
}

// TestFetchOutsideLoadedImage: instructions materialized into instruction
// memory beyond the loaded program image sit outside the dense decode
// window and must decode through the fallback path.
func TestFetchOutsideLoadedImage(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R1, #1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	// A second fragment whose words we plant far beyond the image.
	frag, err := asm.Assemble(d, "mv R2, #9\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	const far = 40
	for i, w := range frag.Words {
		sim.State().Set("IMEM", far+i, w)
	}
	sim.State().SetPC(bitvec.FromUint64(d.PC().Width, far))
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, sim, 2); got != 9 {
		t.Errorf("R2 = %d, want 9 (out-of-image fetch)", got)
	}
	// The out-of-range decode must also disassemble and re-run after an
	// in-place Reset.
	if _, err := sim.Disassemble(far); err != nil {
		t.Fatal(err)
	}
	sim.Reset()
	if got := sim.Stats().Instructions; got != 0 {
		t.Errorf("instructions after Reset = %d, want 0", got)
	}
}

// TestResetReusesStorage: Reset keeps the machine allocation-free — it may
// not reallocate the decode cache, counter maps, or statistics storage.
func TestResetReusesStorage(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R1, #2\n add R1, R1, #3\n halt")
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
	allocs := testing.AllocsPerRun(100, func() { sim.Reset() })
	if allocs > 0 {
		t.Errorf("Reset allocates %.1f objects/op, want 0", allocs)
	}
}
