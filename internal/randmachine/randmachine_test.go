package randmachine_test

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/randmachine"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// TestRandomMachinesPipeline is the whole-pipeline property test: for each
// of a set of randomly generated machines,
//
//  1. the description parses and Format∘Parse is a fixpoint,
//  2. random programs assemble, disassemble back to text, and re-assemble
//     to the identical words (Axiom 1 end to end),
//  3. every program runs on the simulator without a fault.
func TestRandomMachinesPipeline(t *testing.T) {
	rnd := rand.New(rand.NewSource(2024))
	machinesTried := 0
	for trial := 0; trial < 24; trial++ {
		m := randmachine.Generate(rnd, randmachine.Config{})
		d, err := isdl.Parse(m.Source)
		if err != nil {
			t.Fatalf("trial %d: generated machine does not parse: %v\n%s", trial, err, m.Source)
		}
		machinesTried++

		// Format fixpoint.
		text1 := isdl.Format(d)
		d2, err := isdl.Parse(text1)
		if err != nil {
			t.Fatalf("trial %d: Format output does not parse: %v", trial, err)
		}
		if text2 := isdl.Format(d2); text1 != text2 {
			t.Fatalf("trial %d: Format is not a fixpoint", trial)
		}

		for prog := 0; prog < 4; prog++ {
			src := m.RandomProgram(rnd, 20)
			p, err := asm.Assemble(d, src)
			if err != nil {
				t.Fatalf("trial %d: program does not assemble: %v\n%s", trial, err, src)
			}

			// Text round trip.
			listing := asm.DisassembleProgram(p)
			p2, err := asm.Assemble(d, listing)
			if err != nil {
				t.Fatalf("trial %d: listing does not re-assemble: %v\n%s", trial, err, listing)
			}
			if len(p2.Words) != len(p.Words) {
				t.Fatalf("trial %d: round trip changed program length", trial)
			}
			for i := range p.Words {
				if !p2.Words[i].Eq(p.Words[i]) {
					t.Fatalf("trial %d: word %d changed across round trip", trial, i)
				}
			}

			sim := xsim.New(d)
			if err := sim.Load(p); err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(1000); err != nil {
				t.Fatalf("trial %d: run: %v\n%s", trial, err, src)
			}
		}
	}
	if machinesTried != 24 {
		t.Fatalf("only %d machines generated", machinesTried)
	}
}

// TestGeneratedMachineShape sanity-checks the generator's bookkeeping.
func TestGeneratedMachineShape(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	m := randmachine.Generate(rnd, randmachine.Config{MaxOps: 2}) // floor applies
	d, err := isdl.Parse(m.Source)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.ALUOps) == 0 {
		t.Fatal("no ALU operations")
	}
	f := d.Fields[0]
	for _, name := range m.ALUOps {
		if _, ok := f.ByName[name]; !ok {
			t.Fatalf("generator lied about op %s", name)
		}
	}
	if _, ok := f.ByName["halt"]; !ok {
		t.Fatal("no halt")
	}
	if _, ok := f.ByName["nop"]; !ok {
		t.Fatal("no nop")
	}
}

// TestRandomMachinesHardwareModel extends the pipeline property to HGEN:
// every random machine synthesizes, its Verilog parses and elaborates, and
// random programs run lock-step on the ILS and the event-driven hardware
// model with identical state after every instruction.
func TestRandomMachinesHardwareModel(t *testing.T) {
	rnd := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 10; trial++ {
		m := randmachine.Generate(rnd, randmachine.Config{})
		d, err := isdl.Parse(m.Source)
		if err != nil {
			t.Fatal(err)
		}
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: synthesize: %v\n%s", trial, err, m.Source)
		}
		mod, err := verilog.Parse(r.VerilogText)
		if err != nil {
			t.Fatalf("trial %d: verilog re-parse: %v", trial, err)
		}

		for prog := 0; prog < 3; prog++ {
			src := m.RandomProgram(rnd, 15)
			p, err := asm.Assemble(d, src)
			if err != nil {
				t.Fatal(err)
			}
			ils := xsim.New(d)
			if err := ils.Load(p); err != nil {
				t.Fatal(err)
			}
			hw, err := verilog.NewSim(mod)
			if err != nil {
				t.Fatalf("trial %d: elaborate: %v", trial, err)
			}
			for i, w := range p.Words {
				if err := hw.SetMem("s_IMEM", i, w); err != nil {
					t.Fatal(err)
				}
			}
			for step := 0; !ils.Halted(); step++ {
				if err := ils.Step(); err != nil {
					t.Fatalf("trial %d step %d: %v\n%s", trial, step, err, src)
				}
				ils.FlushPending()
				if err := hw.Tick("clk"); err != nil {
					t.Fatal(err)
				}
				for _, st := range d.Storage {
					if st.Kind == isdl.StInstructionMemory {
						continue
					}
					if st.Kind.Addressed() {
						for i := 0; i < st.Depth; i++ {
							want := ils.State().Get(st.Name, i)
							got, err := hw.GetMem("s_"+st.Name, i)
							if err != nil {
								t.Fatal(err)
							}
							if !got.Eq(want) {
								t.Fatalf("trial %d step %d: %s[%d]: hw %s vs ils %s\n%s",
									trial, step, st.Name, i, got, want, src)
							}
						}
					} else {
						want := ils.State().Get(st.Name, 0)
						got, err := hw.Get("s_" + st.Name)
						if err != nil {
							t.Fatal(err)
						}
						if !got.Eq(want) {
							t.Fatalf("trial %d step %d: %s: hw %s vs ils %s\n%s",
								trial, step, st.Name, got, want, src)
						}
					}
				}
			}
		}
	}
}
