package xsim_test

import (
	"bytes"
	"errors"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/state"
	"repro/internal/xsim"
)

// runToy assembles src for the toy machine, runs it to completion and
// returns the simulator.
func runToy(t *testing.T, src string) *xsim.Simulator {
	t.Helper()
	d := machines.Toy()
	p, err := asm.Assemble(d, src)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100000); err != nil {
		t.Fatal(err)
	}
	if !sim.Halted() {
		t.Fatal("program did not halt")
	}
	return sim
}

func reg(t *testing.T, sim *xsim.Simulator, i int) uint64 {
	t.Helper()
	return sim.State().Get("RF", i).Uint64()
}

func TestArithmetic(t *testing.T) {
	sim := runToy(t, `
    mv R1, #5
    mv R2, #3
    add R3, R1, R2
    sub R4, R1, #7
    and R5, R3, #12
    mul R6, R2, #10
    halt
`)
	if got := reg(t, sim, 3); got != 8 {
		t.Errorf("R3 = %d, want 8", got)
	}
	if got := reg(t, sim, 4); got != 0xfe { // 5-7 wraps to -2
		t.Errorf("R4 = %#x, want 0xfe", got)
	}
	if got := reg(t, sim, 5); got != 8 {
		t.Errorf("R5 = %d, want 8", got)
	}
	if got := reg(t, sim, 6); got != 30 {
		t.Errorf("R6 = %d, want 30", got)
	}
}

func TestCarrySideEffect(t *testing.T) {
	// Note: side effects read post-action state (§3.3.3), so the carry
	// side effect must not have its operand overwritten by the action —
	// the destination register differs from both sources here.
	sim := runToy(t, `
    mv R1, #127
    add R2, R1, #127
    add R3, R2, #127
    halt
`)
	// 254 + 127 = 381 > 255: carry set on the second add.
	if got := sim.State().Get("CC", 0).Uint64() & 1; got != 1 {
		t.Errorf("carry = %d, want 1", got)
	}
}

func TestLoop(t *testing.T) {
	sim := runToy(t, `
    mv R1, #0      ; sum
    mv R2, #10     ; n
loop:
    beq R2, R0, done
    add R1, R1, R2
    sub R2, R2, #1
    jmp loop
done:
    halt
`)
	if got := reg(t, sim, 1); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestMemory(t *testing.T) {
	sim := runToy(t, `
.data DMEM 16 7
    mv R1, #16
    ld R2, @R1
    add R2, R2, #1
    mv R3, #17
    st @R3, R2
    halt
`)
	if got := sim.State().Get("DMEM", 17).Uint64(); got != 8 {
		t.Errorf("DMEM[17] = %d, want 8", got)
	}
}

func TestStackAndCall(t *testing.T) {
	sim := runToy(t, `
    mv R1, #1
    call fn
    add R3, R1, #0
    halt
fn:
    push R1
    mv R1, #9
    pop R2
    ret
`)
	if got := reg(t, sim, 2); got != 1 {
		t.Errorf("R2 = %d, want 1 (pushed value)", got)
	}
	if got := reg(t, sim, 3); got != 9 {
		t.Errorf("R3 = %d, want 9 (set inside fn)", got)
	}
}

func TestStackOverflowFault(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, `
loop:
    push R0
    jmp loop
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	err = sim.Run(1000)
	var re *xsim.RuntimeError
	if !errors.As(err, &re) || !strings.Contains(err.Error(), "overflow") {
		t.Fatalf("err = %v, want stack overflow RuntimeError", err)
	}
	if !sim.Halted() {
		t.Fatal("fault should halt the machine")
	}
}

func TestIllegalInstruction(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, ".word 0xe00000")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(10); err == nil {
		t.Fatal("expected illegal instruction error")
	}
}

// TestCycleAccounting checks the §3.3.3 model precisely: one cycle per
// instruction, plus data-hazard bubbles derived from Latency.
func TestCycleAccounting(t *testing.T) {
	cases := []struct {
		name       string
		src        string
		cycles     uint64
		dataStalls uint64
	}{
		{
			// Four single-cycle instructions, no hazards.
			name: "straight line",
			src:  "mv R1, #1\n mv R2, #2\n add R3, R1, R2\n halt",
			// mv t0, mv t1, add t2 (R1 ready: mv latency 1), halt t3.
			cycles: 4, dataStalls: 0,
		},
		{
			// mul has Latency 3: a consumer in the next slot waits 2.
			name:   "mul use next",
			src:    "mv R1, #4\n mul R2, R1, #3\n add R3, R2, #1\n halt",
			cycles: 6, dataStalls: 2,
		},
		{
			// One independent instruction between producer and consumer
			// hides one of the two bubbles.
			name:   "mul use after one",
			src:    "mv R1, #4\n mul R2, R1, #3\n mv R4, #9\n add R3, R2, #1\n halt",
			cycles: 6, dataStalls: 1,
		},
		{
			// Two independent instructions hide the latency entirely.
			name:   "mul fully hidden",
			src:    "mv R1, #4\n mul R2, R1, #3\n mv R4, #9\n mv R5, #8\n add R3, R2, #1\n halt",
			cycles: 6, dataStalls: 0,
		},
		{
			// ld has Latency 2: one bubble when used immediately.
			name:   "load use",
			src:    "mv R1, #0\n ld R2, @R1\n add R3, R2, #1\n halt",
			cycles: 5, dataStalls: 1,
		},
		{
			// The consumer reads a different register: no stall.
			name:   "load no use",
			src:    "mv R1, #0\n ld R2, @R1\n add R3, R1, #1\n halt",
			cycles: 4, dataStalls: 0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sim := runToy(t, c.src)
			if got := sim.Cycle(); got != c.cycles {
				t.Errorf("cycles = %d, want %d", got, c.cycles)
			}
			if got := sim.Stats().DataStalls; got != c.dataStalls {
				t.Errorf("data stalls = %d, want %d", got, c.dataStalls)
			}
		})
	}
}

// TestDataStallIgnoresCostStall pins the interlock rule the simulator
// runs: a consumer at issue distance d waits Latency−d cycles, whatever
// the producer's Cost Stall says (only HGEN's pipeline inference and
// traceprof's cycle weights read Stall). With mul's Stall = 0 the
// dependent add still waits the two bubbles of "mul use next" above.
func TestDataStallIgnoresCostStall(t *testing.T) {
	d := machines.Toy()
	mul := d.FieldByName("EX").ByName["mul"]
	if mul.Costs.Stall != 2 || mul.Timing.Latency != 3 {
		t.Fatalf("toy mul: %+v %+v, want Stall 2 and Latency 3", mul.Costs, mul.Timing)
	}
	mul.Costs.Stall = 0
	p, err := asm.Assemble(d, "mv R1, #4\n mul R2, R1, #3\n add R3, R2, #1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("interp", func(t *testing.T) {
		sim := xsim.New(d)
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(1000); err != nil || !sim.Halted() {
			t.Fatalf("run: err %v, halted %v", err, sim.Halted())
		}
		if got := sim.Cycle(); got != 6 {
			t.Errorf("cycles = %d, want 6", got)
		}
		if got := sim.Stats().DataStalls; got != 2 {
			t.Errorf("data stalls = %d, want 2", got)
		}
	})
}

// TestLatencyValueCorrect verifies delayed write-back still yields correct
// results with the interlock on: the stalled consumer sees the new value.
func TestLatencyValueCorrect(t *testing.T) {
	sim := runToy(t, "mv R1, #4\n mul R2, R1, #3\n add R3, R2, #1\n halt")
	if got := reg(t, sim, 3); got != 13 {
		t.Errorf("R3 = %d, want 13", got)
	}
}

// TestStallModelOff is ablation C: with the interlock disabled, the machine
// issues back-to-back, counts no stalls, and the consumer reads the stale
// register value — exactly what interlock-free hardware would do.
func TestStallModelOff(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R1, #4\n mul R2, R1, #3\n add R3, R2, #1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	sim.StallModel = false
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := sim.Cycle(); got != 4 {
		t.Errorf("cycles = %d, want 4", got)
	}
	if got := sim.Stats().DataStalls; got != 0 {
		t.Errorf("data stalls = %d, want 0", got)
	}
	if got := reg(t, sim, 3); got != 1 { // stale R2 (= 0) + 1
		t.Errorf("R3 = %d, want 1 (stale read)", got)
	}
}

// TestUsageStall exercises the structural hazard path with a Usage > Cycle
// operation on a dedicated machine.
func TestUsageStall(t *testing.T) {
	src := `
Machine u;
Format 8;
Section Global_Definitions
Section Storage
InstructionMemory IMEM width 8 depth 32;
Register ACC width 8;
ControlRegister HLT width 1;
ProgramCounter PC width 5;
Section Instruction_Set
Field F:
  op inc
    Encode { I[7:4] = 0x1; }
    Action { ACC <- ACC + 1; }
    Timing { Latency = 1; Usage = 3; }
  op halt
    Encode { I[7:4] = 0x2; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[7:4] = 0x0; }
`
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "inc\ninc\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(100); err != nil {
		t.Fatal(err)
	}
	// inc t0 (unit busy until t3), inc t3, halt t6: 7 cycles total.
	if got := sim.Cycle(); got != 7 {
		t.Errorf("cycles = %d, want 7", got)
	}
	if got := sim.Stats().StructStalls; got != 4 {
		t.Errorf("struct stalls = %d, want 4", got)
	}
	if got := sim.State().Get("ACC", 0).Uint64(); got != 2 {
		t.Errorf("ACC = %d, want 2", got)
	}
}

func TestBreakpoints(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, `
    mv R1, #1
    mv R2, #2
target:
    mv R3, #3
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	sim.AddBreakpoint(p.Symbols["target"])
	err = sim.Run(0)
	if !errors.Is(err, xsim.ErrBreakpoint) {
		t.Fatalf("err = %v, want breakpoint", err)
	}
	if got := reg(t, sim, 2); got != 2 {
		t.Errorf("R2 = %d before breakpoint", got)
	}
	if got := reg(t, sim, 3); got != 0 {
		t.Errorf("R3 = %d, breakpoint did not stop in time", got)
	}
	// Continue from the breakpoint.
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, sim, 3); got != 3 {
		t.Errorf("R3 = %d after continue", got)
	}
	if got := sim.Breakpoints(); len(got) != 1 || got[0] != p.Symbols["target"] {
		t.Errorf("Breakpoints() = %v", got)
	}
	if !sim.RemoveBreakpoint(p.Symbols["target"]) || sim.RemoveBreakpoint(99) {
		t.Error("RemoveBreakpoint bookkeeping wrong")
	}
}

func TestTrace(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R1, #1\n jmp skip\n mv R2, #2\nskip:\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	var buf bytes.Buffer
	sim.SetTrace(&buf)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "0\n1\n3\n" {
		t.Errorf("trace = %q, want 0,1,3", got)
	}
}

func TestStats(t *testing.T) {
	sim := runToy(t, "mv R1, #1\n nop\n add R2, R1, #1\n halt")
	st := sim.Stats()
	if st.Instructions != 4 {
		t.Errorf("instructions = %d", st.Instructions)
	}
	if st.OpCounts["EX.mv"] != 1 || st.OpCounts["EX.nop"] != 1 || st.OpCounts["EX.add"] != 1 {
		t.Errorf("op counts: %v", st.OpCounts)
	}
	// 3 of 4 instructions did real work on the single field.
	if u := st.Utilization()[0]; u != 0.75 {
		t.Errorf("utilization = %v", u)
	}
	if s := st.Summary(sim.Description()); !strings.Contains(s, "EX.add") || !strings.Contains(s, "utilization") {
		t.Errorf("summary: %q", s)
	}
}

// Two toy programs with different operation mixes and image sizes, for
// the Stats snapshot test.
const (
	statsProgA = "mv R1, #5\n mv R2, #3\n add R3, R1, R2\n halt"
	statsProgB = `
    mv R1, #0
loop:
    add R1, R1, #1
    sub R2, R1, #4
    beq R2, R0, done
    jmp loop
done:
    halt`
)

// TestStatsSnapshot: Stats returns a snapshot that owns its map and
// slice, so loading and running another program on the same simulator
// leaves an earlier snapshot exactly as it was.
func TestStatsSnapshot(t *testing.T) {
	d := machines.Toy()
	sim := xsim.New(d)
	snap, want := runForStats(t, sim, d, statsProgA)
	if got, _ := runForStats(t, sim, d, statsProgB); reflect.DeepEqual(got, want) {
		t.Fatal("programs A and B gave equal statistics; the test needs different operation mixes")
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("Stats snapshot changed under a later Load/Run:\nnow  %+v\nwant %+v", snap, want)
	}
}

// runForStats loads and runs src to halt on sim and returns its Stats
// snapshot together with a deep copy of it.
func runForStats(t *testing.T, sim *xsim.Simulator, d *isdl.Description, src string) (snap, cp xsim.Stats) {
	t.Helper()
	p, err := asm.Assemble(d, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(1000); err != nil || !sim.Halted() {
		t.Fatalf("run: err %v, halted %v", err, sim.Halted())
	}
	snap = sim.Stats()
	cp = snap
	cp.OpCounts = maps.Clone(snap.OpCounts)
	cp.FieldIssue = slices.Clone(snap.FieldIssue)
	return snap, cp
}

func TestMonitorsDuringRun(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R5, #9\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	var events []state.ChangeEvent
	if _, err := sim.State().Watch("RF", 5, func(ev state.ChangeEvent) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].New.Uint64() != 9 {
		t.Fatalf("events: %v", events)
	}
}

func TestSelfModifyingCodeInvalidatesDecode(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R1, #1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	// Execute once so address 0 is cached, then rewrite it.
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	p2, err := asm.Assemble(d, "mv R1, #7\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim.State().Set("IMEM", 0, p2.Words[0])
	sim.State().SetPC(sim.State().Get("PC", 0).Trunc(8).Sub(sim.State().Get("PC", 0).Trunc(8))) // PC <- 0
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, sim, 1); got != 7 {
		t.Errorf("R1 = %d, want 7 (decode cache should invalidate)", got)
	}
}

func TestStepAfterHalt(t *testing.T) {
	sim := runToy(t, "halt")
	c := sim.Cycle()
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if sim.Cycle() != c {
		t.Error("halted machine advanced")
	}
}

func TestDisassembleAt(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "add R1, R2, #3")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	got, err := sim.Disassemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != "add R1, R2, #3" {
		t.Errorf("disassemble = %q", got)
	}
}

func TestRunLimit(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "loop: jmp loop")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(50); err != nil {
		t.Fatal(err)
	}
	if got := sim.Stats().Instructions; got != 50 {
		t.Errorf("instructions = %d, want 50", got)
	}
	if sim.Halted() {
		t.Error("limit stop should not halt the machine")
	}
}

func TestLoadEntrySymbol(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "fn:\n ret\nstart:\n mv R1, #3\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if got := sim.State().PC().Uint64(); got != uint64(p.Symbols["start"]) {
		t.Errorf("entry PC = %d, want start", got)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := reg(t, sim, 1); got != 3 {
		t.Errorf("R1 = %d", got)
	}
}

func TestHaltFlushesPendingWrites(t *testing.T) {
	// mul result must be architecturally visible after halt even though
	// the program halts before its latency elapses.
	sim := runToy(t, "mv R1, #6\n mul R2, R1, #7\n halt")
	if got := reg(t, sim, 2); got != 42 {
		t.Errorf("R2 = %d, want 42", got)
	}
}

// TestCorePrograms pins the processing core's architectural results —
// cycles, state writes and registers — on a set of toy workloads:
// straight-line arithmetic, a loop, memory, the stack and a latency stall.
func TestCorePrograms(t *testing.T) {
	cases := []struct {
		src            string
		cycles, writes uint64
		rf             [8]uint64
	}{
		{"mv R1, #5\n mv R2, #3\n add R3, R1, R2\n sub R4, R1, #7\n halt",
			5, 7, [8]uint64{0, 5, 3, 8, 254}},
		{"mv R1, #0\n mv R2, #10\nloop:\n beq R2, R0, done\n add R1, R1, R2\n sub R2, R2, #1\n jmp loop\ndone:\n halt",
			44, 54, [8]uint64{0, 55}},
		{".data DMEM 16 7\n mv R1, #16\n ld R2, @R1\n add R2, R2, #1\n mv R3, #17\n st @R3, R2\n halt",
			7, 7, [8]uint64{0, 16, 8, 17}},
		{"mv R1, #1\n call fn\n halt\nfn:\n push R1\n mv R1, #9\n pop R2\n ret",
			7, 6, [8]uint64{0, 9, 1}},
		{"mv R1, #4\n mul R2, R1, #3\n add R3, R2, #1\n halt",
			6, 5, [8]uint64{0, 4, 12, 13}},
	}
	for i, c := range cases {
		sim := runToy(t, c.src)
		var rf [8]uint64
		for r := range rf {
			rf[r] = reg(t, sim, r)
		}
		if sim.Cycle() != c.cycles || sim.Stats().Writes != c.writes || rf != c.rf {
			t.Errorf("program %d: cycles %d writes %d RF %v, want %d %d %v",
				i, sim.Cycle(), sim.Stats().Writes, rf, c.cycles, c.writes, c.rf)
		}
		if i == 2 {
			if got := sim.State().Get("DMEM", 17).Uint64(); got != 8 {
				t.Errorf("DMEM[17] = %d, want 8", got)
			}
		}
	}
}

// TestInterpreterFault: runtime faults halt the machine with a
// *RuntimeError naming the faulting instruction; any other panic (here one
// raised by a state monitor) is not a simulation fault and propagates.
func TestInterpreterFault(t *testing.T) {
	d := machines.Toy()
	for _, c := range []struct{ src, msg string }{
		{"mv R1, #1\nloop:\n push R0\n jmp loop", "state: stack STK overflow (depth 16)"},
		{"mv R1, #1\n pop R1\n halt", "state: stack STK underflow"},
	} {
		p, err := asm.Assemble(d, c.src)
		if err != nil {
			t.Fatal(err)
		}
		sim := xsim.New(d)
		if err := sim.Load(p); err != nil {
			t.Fatal(err)
		}
		err = sim.Run(1000)
		var re *xsim.RuntimeError
		if !errors.As(err, &re) || re.PC != 1 || re.Msg != c.msg {
			t.Fatalf("err = %#v, want RuntimeError at 0x1: %s", err, c.msg)
		}
		if !sim.Halted() || sim.Err() != err {
			t.Fatalf("fault did not halt the machine: halted=%v err=%v", sim.Halted(), sim.Err())
		}
	}

	p, err := asm.Assemble(d, "mv R1, #1\n halt")
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	type boom struct{}
	if _, err := sim.State().Watch("RF", 1, func(state.ChangeEvent) { panic(boom{}) }); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if r := recover(); r != (boom{}) {
			t.Fatalf("recovered %v, want the monitor's own panic", r)
		}
	}()
	sim.Run(10)
	t.Fatal("monitor panic was swallowed")
}

// TestSliceOfSlicedAlias writes through a slice of a sliced alias: the
// offsets compose onto the aliased register and the write lands on the
// right bits through the resolved storage handle.
func TestSliceOfSlicedAlias(t *testing.T) {
	d, err := isdl.Parse(`
Machine slices;
Format 8;
Section Global_Definitions
Section Storage
InstructionMemory IMEM width 8 depth 16;
Register ACC width 16;
ControlRegister HLT width 1;
ProgramCounter PC width 4;
Alias MID = ACC[11:4];
Section Instruction_Set
Field F:
  op set
    Encode { I[7:4] = 0x1; }
    Action { MID[5:2] <- 0b1011; }
  op halt
    Encode { I[7:4] = 0x2; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[7:4] = 0x0; }
`)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "set\nhalt")
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
	// MID[5:2] is ACC[9:6].
	if got := sim.State().Get("ACC", 0).Uint64(); got != 0b1011<<6 {
		t.Errorf("ACC = %#x, want %#x", got, 0b1011<<6)
	}
	if got := sim.Stats().Writes; got != 2 {
		t.Errorf("writes = %d, want 2 (set, halt)", got)
	}
}

// TestMultiWordInstructions executes Size-2 operations: fetch spans two
// instruction words and the PC advances by the instruction's Size.
func TestMultiWordInstructions(t *testing.T) {
	src := `
Machine wide;
Format 8;
Section Global_Definitions
Token IMM12 imm unsigned 12;
Section Storage
InstructionMemory IMEM width 8 depth 32;
Register ACC width 12;
ControlRegister HLT width 1;
ProgramCounter PC width 5;
Section Instruction_Set
Field F:
  op ldi (v: IMM12)
    Encode { I[7:4] = 0x1; I[3:0] = v[11:8]; I[15:8] = v[7:0]; }
    Action { ACC <- v; }
    Cost { Cycle = 1; Size = 2; }
  op addi (v: IMM12)
    Encode { I[7:4] = 0x2; I[3:0] = v[11:8]; I[15:8] = v[7:0]; }
    Action { ACC <- ACC + v; }
    Cost { Cycle = 1; Size = 2; }
  op halt
    Encode { I[7:4] = 0x3; }
    Action { HLT <- 0b1; }
  op nop
    Encode { I[7:4] = 0x0; }
`
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := asm.Assemble(d, "ldi 3000\naddi 500\nnop\naddi 100\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	// 2 + 2 + 1 + 2 + 1 words.
	if len(p.Words) != 8 {
		t.Fatalf("words: %d", len(p.Words))
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := sim.State().Get("ACC", 0).Uint64(); got != 3600 {
		t.Fatalf("ACC = %d, want 3600", got)
	}
	if got := sim.Stats().Instructions; got != 5 {
		t.Fatalf("instructions = %d, want 5", got)
	}
	// One cycle per instruction regardless of width.
	if got := sim.Cycle(); got != 5 {
		t.Fatalf("cycles = %d, want 5", got)
	}
}
