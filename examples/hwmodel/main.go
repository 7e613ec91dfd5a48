// Hardware model: generate the synthesizable Verilog for SPAM2 with HGEN
// (paper §4), print the Table-2-style synthesis report, then lock-step the
// generated instruction-level simulator against an event-driven simulation
// of the emitted Verilog — demonstrating that "the synthesizable Verilog
// model is itself a simulator" and that both generated models implement the
// same machine bit for bit.
//
//	go run ./examples/hwmodel
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/machines"
	"repro/internal/verilog"
)

const program = `
    mvi R1, #0
    mvi R2, #12
loop:
    beqz R2, done
    add R1, R1, R2
    sub R2, R2, #1
    jmp loop
done:
    halt
`

func main() {
	d, err := repro.ParseISDL(machines.SPAM2Source)
	if err != nil {
		log.Fatal(err)
	}

	hw, err := repro.Synthesize(d, nil, repro.DefaultSynthesisOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(hw.Report())
	fmt.Println()

	vsim, err := verilog.NewSim(hw.Module)
	if err != nil {
		log.Fatal(err)
	}

	p, err := repro.Assemble(d, program)
	if err != nil {
		log.Fatal(err)
	}
	ils := repro.NewSimulator(d)
	if err := ils.Load(p); err != nil {
		log.Fatal(err)
	}
	for i, w := range p.Words {
		if err := vsim.SetMem("s_IMEM", i, w); err != nil {
			log.Fatal(err)
		}
	}

	steps := 0
	for !ils.Halted() {
		if err := ils.Step(); err != nil {
			log.Fatal(err)
		}
		ils.FlushPending()
		if err := vsim.Tick("clk"); err != nil {
			log.Fatal(err)
		}
		steps++
		// Cross-check the register file every instruction.
		for r := 0; r < 8; r++ {
			a := ils.State().Get("RF", r)
			b, err := vsim.GetMem("s_RF", r)
			if err != nil {
				log.Fatal(err)
			}
			if !a.Eq(b) {
				log.Fatalf("step %d: RF[%d] mismatch: ILS %s vs HW %s", steps, r, a, b)
			}
		}
	}
	sum, _ := vsim.GetMem("s_RF", 1)
	fmt.Printf("co-simulation: %d instructions lock-stepped, ILS == Verilog model\n", steps)
	fmt.Printf("sum(1..12) = %d on both models (%d events in the event-driven run)\n",
		sum.Uint64(), vsim.Events())
}
