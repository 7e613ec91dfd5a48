package state_test

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/machines"
	"repro/internal/state"
)

func newToy(t *testing.T) *state.State {
	t.Helper()
	return state.New(machines.Toy())
}

func TestGetSetWidthTruncation(t *testing.T) {
	s := newToy(t)
	s.Set("RF", 3, bitvec.FromUint64(16, 0x1ff)) // RF is 8 bits wide
	if got := s.Get("RF", 3).Uint64(); got != 0xff {
		t.Fatalf("RF[3] = %#x, want 0xff", got)
	}
	if got := s.Get("RF", 3).Width(); got != 8 {
		t.Fatalf("width %d", got)
	}
}

func TestMonitors(t *testing.T) {
	s := newToy(t)
	var events []state.ChangeEvent
	id, err := s.Watch("RF", -1, func(ev state.ChangeEvent) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	s.Cycle = 42
	s.Set("RF", 1, bitvec.FromUint64(8, 5))
	s.Set("RF", 1, bitvec.FromUint64(8, 5)) // no change: no event
	s.Set("ACC", 0, bitvec.FromUint64(8, 9))
	if len(events) != 1 {
		t.Fatalf("events: %d", len(events))
	}
	ev := events[0]
	if ev.Storage.Name != "RF" || ev.Index != 1 || ev.New.Uint64() != 5 || ev.Cycle != 42 {
		t.Fatalf("event: %v", ev)
	}
	if !s.Unwatch(id) {
		t.Fatal("Unwatch failed")
	}
	s.Set("RF", 1, bitvec.FromUint64(8, 6))
	if len(events) != 1 {
		t.Fatal("monitor fired after Unwatch")
	}
	if s.Unwatch(id) {
		t.Fatal("double Unwatch succeeded")
	}
}

func TestIndexedWatch(t *testing.T) {
	s := newToy(t)
	var n int
	if _, err := s.Watch("RF", 2, func(state.ChangeEvent) { n++ }); err != nil {
		t.Fatal(err)
	}
	s.Set("RF", 1, bitvec.FromUint64(8, 1))
	s.Set("RF", 2, bitvec.FromUint64(8, 1))
	if n != 1 {
		t.Fatalf("indexed watch fired %d times", n)
	}
	if _, err := s.Watch("NOPE", -1, nil); err == nil {
		t.Fatal("Watch on unknown storage should fail")
	}
}

func TestStack(t *testing.T) {
	s := newToy(t)
	stk, _ := s.Handle("STK")
	for i := 0; i < 16; i++ {
		if err := stk.Push(bitvec.FromUint64(8, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := stk.Push(bitvec.FromUint64(8, 99)); err == nil {
		t.Fatal("expected overflow")
	}
	if got := s.StackDepth("STK"); got != 16 {
		t.Fatalf("depth %d", got)
	}
	for i := 15; i >= 0; i-- {
		v, err := stk.Pop()
		if err != nil {
			t.Fatal(err)
		}
		if v.Uint64() != uint64(i) {
			t.Fatalf("pop = %d, want %d", v.Uint64(), i)
		}
	}
	if _, err := stk.Pop(); err == nil {
		t.Fatal("expected underflow")
	}
	rf, _ := s.Handle("RF")
	if err := rf.Push(bitvec.FromUint64(8, 0)); err == nil {
		t.Fatal("push to non-stack should fail")
	}
}

func TestBitsAccess(t *testing.T) {
	s := newToy(t)
	s.Set("ACC", 0, bitvec.FromUint64(8, 0b10110100))
	if got := s.GetBits("ACC", 0, 5, 2).Uint64(); got != 0b1101 {
		t.Fatalf("GetBits = %#b", got)
	}
	s.SetBits("ACC", 0, 3, 0, bitvec.FromUint64(4, 0b1111))
	if got := s.Get("ACC", 0).Uint64(); got != 0b10111111 {
		t.Fatalf("after SetBits: %#b", got)
	}
}

func TestPCHelpers(t *testing.T) {
	s := newToy(t)
	s.SetPC(bitvec.FromUint64(8, 0x20))
	if got := s.PC().Uint64(); got != 0x20 {
		t.Fatalf("PC = %#x", got)
	}
}

func TestLoadProgramQuiet(t *testing.T) {
	s := newToy(t)
	var n int
	if _, err := s.Watch("IMEM", -1, func(state.ChangeEvent) { n++ }); err != nil {
		t.Fatal(err)
	}
	words := []bitvec.Value{bitvec.FromUint64(24, 1), bitvec.FromUint64(24, 2)}
	if err := s.LoadProgram(10, words); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatal("LoadProgram fired monitors")
	}
	if got := s.Get("IMEM", 11).Uint64(); got != 2 {
		t.Fatalf("IMEM[11] = %d", got)
	}
	if err := s.LoadProgram(255, words); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestLoadData(t *testing.T) {
	s := newToy(t)
	if err := s.LoadData("DMEM", 5, []bitvec.Value{bitvec.FromUint64(8, 42)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Get("DMEM", 5).Uint64(); got != 42 {
		t.Fatalf("DMEM[5] = %d", got)
	}
	if err := s.LoadData("DMEM", 256, []bitvec.Value{bitvec.New(8)}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestResetKeepsMonitors(t *testing.T) {
	s := newToy(t)
	var n int
	if _, err := s.Watch("ACC", -1, func(state.ChangeEvent) { n++ }); err != nil {
		t.Fatal(err)
	}
	s.Set("ACC", 0, bitvec.FromUint64(8, 1))
	s.Reset()
	if got := s.Get("ACC", 0).Uint64(); got != 0 {
		t.Fatal("Reset did not zero ACC")
	}
	s.Set("ACC", 0, bitvec.FromUint64(8, 2))
	if n != 2 {
		t.Fatalf("monitor fired %d times, want 2", n)
	}
}

func TestSnapshot(t *testing.T) {
	s := newToy(t)
	s.Set("RF", 0, bitvec.FromUint64(8, 9))
	snap := s.Snapshot()
	s.Set("RF", 0, bitvec.FromUint64(8, 1))
	if snap["RF"][0].Uint64() != 9 {
		t.Fatal("snapshot aliases live state")
	}
}

func TestChangeEventString(t *testing.T) {
	s := newToy(t)
	var got string
	if _, err := s.Watch("RF", -1, func(ev state.ChangeEvent) { got = ev.String() }); err != nil {
		t.Fatal(err)
	}
	s.Set("RF", 4, bitvec.FromUint64(8, 3))
	if got != "cycle 0: RF[4]: 8'h0 -> 8'h3" {
		t.Fatalf("String = %q", got)
	}
}
