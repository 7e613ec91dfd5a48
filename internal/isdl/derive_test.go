package isdl_test

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/isdl"
	"repro/internal/isdl/isdltest"
	"repro/internal/machines"
)

// TestDeriveConcurrent: four goroutines derive from one parsed zoo machine
// at once, each with its own edit. The race detector fails the test if a
// copy shares anything the semantic pass or an edit writes, and the parent
// must come out unchanged.
func TestDeriveConcurrent(t *testing.T) {
	for _, z := range machines.Zoo() {
		d, err := isdl.Parse(z.Source)
		if err != nil {
			t.Fatal(err)
		}
		text, structure := isdl.Format(d), isdltest.Structure(d)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 3; i++ {
					c, err := isdl.Derive(d, func(c *isdl.Description) {
						op := c.Fields[0].Ops[0]
						op.Timing.Latency += g
						op.Costs.Stall += g
						c.Storage[0].Depth += g
					})
					if err != nil {
						t.Errorf("%s: goroutine %d: %v", z.Name, g, err)
						return
					}
					if g == 0 && isdl.Format(c) != text {
						t.Errorf("%s: a copy with a zero edit formats differently", z.Name)
					}
				}
			}(g)
		}
		wg.Wait()
		if isdl.Format(d) != text || isdltest.Structure(d) != structure {
			t.Errorf("%s: Derive changed its parent", z.Name)
		}
	}
}

// TestDeriveInvalidEdit: an edit that leaves no valid description fails
// Derive with the semantic pass's error, as Parse of its text fails.
func TestDeriveInvalidEdit(t *testing.T) {
	d, err := isdl.Parse(machines.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	var text string
	_, err = isdl.Derive(d, func(c *isdl.Description) {
		c.InstructionMemory().Depth = 0
		text = isdl.Format(c)
	})
	if err == nil || !strings.Contains(err.Error(), "requires a positive depth") {
		t.Fatalf("Derive = %v, want a depth error", err)
	}
	if _, perr := isdl.Parse(text); perr == nil || !strings.Contains(perr.Error(), "requires a positive depth") {
		t.Fatalf("Parse of the edited text = %v, want the same error", perr)
	}
	if d.InstructionMemory().Depth == 0 {
		t.Fatal("the edit reached the parent")
	}
}
