package xsim_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/machines"
	"repro/internal/state"
	"repro/internal/xsim"
)

func newSession(t *testing.T, src string) (*xsim.Session, *bytes.Buffer) {
	t.Helper()
	d := machines.Toy()
	p, err := asm.Assemble(d, src)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	s := xsim.NewSession(xsim.New(d), &out)
	if err := s.LoadProgram(p); err != nil {
		t.Fatal(err)
	}
	return s, &out
}

func exec(t *testing.T, s *xsim.Session, lines ...string) {
	t.Helper()
	for _, l := range lines {
		if err := s.Execute(l); err != nil {
			t.Fatalf("%s: %v", l, err)
		}
	}
}

func TestSessionRunAndExamine(t *testing.T) {
	s, out := newSession(t, "mv R1, #42\n halt")
	exec(t, s, "run", "x RF 1")
	if !strings.Contains(out.String(), "RF[1] = 8'h2a (42)") {
		t.Fatalf("output: %q", out.String())
	}
	if !strings.Contains(out.String(), "halted at cycle 2") {
		t.Fatalf("output: %q", out.String())
	}
}

func TestSessionStepAndDisasm(t *testing.T) {
	s, out := newSession(t, "mv R1, #1\n mv R2, #2\n halt")
	exec(t, s, "step 2", "disasm 0 3", "pc")
	text := out.String()
	if !strings.Contains(text, "0000  mv R1, #1") || !strings.Contains(text, "0002  halt") {
		t.Fatalf("output: %q", text)
	}
}

func TestSessionBreakpointBySymbol(t *testing.T) {
	s, out := newSession(t, "mv R1, #1\nhere:\n mv R2, #2\n halt")
	exec(t, s, "break here", "run")
	if !strings.Contains(out.String(), "breakpoint at 0001") {
		t.Fatalf("output: %q", out.String())
	}
	exec(t, s, "breaks", "unbreak here", "run")
	if !strings.Contains(out.String(), "halted") {
		t.Fatalf("output: %q", out.String())
	}
	if err := s.Execute("unbreak here"); err == nil {
		t.Fatal("unbreak of cleared breakpoint should fail")
	}
}

func TestSessionWatch(t *testing.T) {
	s, out := newSession(t, "mv R3, #7\n halt")
	exec(t, s, "watch RF 3", "run")
	if !strings.Contains(out.String(), "watch: cycle 0: RF[3]: 8'h0 -> 8'h7") {
		t.Fatalf("output: %q", out.String())
	}
	exec(t, s, "unwatch 1")
	if err := s.Execute("unwatch 99"); err == nil {
		t.Fatal("unwatch of unknown id should fail")
	}
}

func TestSessionAttachedCommands(t *testing.T) {
	s, out := newSession(t, `
    mv R1, #0
loop:
    add R1, R1, #1
    beq R1, R2, done
    jmp loop
done:
    halt
`)
	// Attach a state dump to the loop head; the run resumes automatically.
	exec(t, s, "set RF 2 3", "attach loop x RF 1", "run")
	text := out.String()
	if got := strings.Count(text, "RF[1]"); got != 3 {
		t.Fatalf("attached command ran %d times, want 3:\n%s", got, text)
	}
	if !strings.Contains(text, "halted") {
		t.Fatalf("run did not complete: %q", text)
	}
}

func TestSessionSetAndReset(t *testing.T) {
	s, out := newSession(t, "add R1, R2, #1\n halt")
	exec(t, s, "set RF 2 10", "run", "x RF 1")
	if !strings.Contains(out.String(), "RF[1] = 8'hb (11)") {
		t.Fatalf("output: %q", out.String())
	}
	out.Reset()
	exec(t, s, "reset", "x RF 1")
	if !strings.Contains(out.String(), "RF[1] = 8'h0 (0)") {
		t.Fatalf("after reset: %q", out.String())
	}
}

func TestSessionScriptAndFiles(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, "mv R5, #5\n halt")
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{
		"prog.xbin": asm.Marshal(p),
		"script":    []byte("# batch\nload prog.xbin\nrun\nx RF 5\necho done\n"),
	}
	var out bytes.Buffer
	s := xsim.NewSession(xsim.New(d), &out)
	s.Open = func(name string) ([]byte, error) {
		b, ok := files[name]
		if !ok {
			return nil, fmt.Errorf("no file %s", name)
		}
		return b, nil
	}
	if err := s.Execute("source script"); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "RF[5] = 8'h5 (5)") || !strings.Contains(text, "done") {
		t.Fatalf("output: %q", text)
	}
}

func TestSessionSymbolsAndSetpc(t *testing.T) {
	s, out := newSession(t, "a:\n nop\nb:\n halt")
	exec(t, s, "symbols", "setpc b", "run")
	text := out.String()
	if !strings.Contains(text, "a") || !strings.Contains(text, "0001") {
		t.Fatalf("symbols: %q", text)
	}
	if s.Sim.Stats().Instructions != 1 {
		t.Fatalf("setpc b should skip the nop; executed %d", s.Sim.Stats().Instructions)
	}
}

func TestSessionStats(t *testing.T) {
	s, out := newSession(t, "nop\n halt")
	exec(t, s, "run", "stats")
	if !strings.Contains(out.String(), "instructions:  2") {
		t.Fatalf("stats: %q", out.String())
	}
}

func TestSessionErrors(t *testing.T) {
	s, _ := newSession(t, "halt")
	for _, bad := range []string{
		"bogus", "x NOPE", "break zzz9x", "set NOPE 0 1", "step x",
		"watch NOPE", "load x", "source x", "run x", "unbreak",
	} {
		if err := s.Execute(bad); err == nil {
			t.Errorf("command %q should fail", bad)
		}
	}
}

func TestSessionREPLAndQuit(t *testing.T) {
	s, out := newSession(t, "halt")
	s.REPL(strings.NewReader("echo hi\nbadcmd\nquit\n"))
	text := out.String()
	if !strings.Contains(text, "hi") || !strings.Contains(text, "error:") {
		t.Fatalf("repl output: %q", text)
	}
	if !s.Quit() {
		t.Fatal("quit flag not set")
	}
}

func TestSessionHelp(t *testing.T) {
	s, out := newSession(t, "halt")
	exec(t, s, "help")
	if !strings.Contains(out.String(), "breakpoints") {
		t.Fatalf("help: %q", out.String())
	}
}

func TestSessionProfile(t *testing.T) {
	s, out := newSession(t, `
    mv R1, #3
again:
    sub R1, R1, #1
    beq R1, R0, fin
    jmp again
fin:
    halt
`)
	exec(t, s, "profile on", "run", "profile report 3")
	text := out.String()
	if !strings.Contains(text, "execution profile") || !strings.Contains(text, "again") {
		t.Fatalf("profile output: %q", text)
	}
	exec(t, s, "profile off")
	if err := s.Execute("profile report"); err == nil {
		t.Fatal("report after off should fail")
	}
	if err := s.Execute("profile bogus"); err == nil {
		t.Fatal("bad subcommand should fail")
	}
}

// TestMMIODeviceHook shows memory-mapped output: a state monitor on the MMIO
// storage acts as the attached device, observing every `out` write.
func TestMMIODeviceHook(t *testing.T) {
	d := machines.Toy()
	p, err := asm.Assemble(d, `
    mv R1, #65
    out 0, R1
    add R1, R1, #1
    out 1, R1
    halt
`)
	if err != nil {
		t.Fatal(err)
	}
	sim := xsim.New(d)
	if err := sim.Load(p); err != nil {
		t.Fatal(err)
	}
	var device []byte
	if _, err := sim.State().Watch("MMIO", -1, func(ev state.ChangeEvent) {
		device = append(device, byte(ev.New.Uint64()))
	}); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if string(device) != "AB" {
		t.Fatalf("device received %q, want AB", device)
	}
	if got := sim.State().Get("MMIO", 1).Uint64(); got != 66 {
		t.Fatalf("MMIO[1] = %d", got)
	}
}

// TestSessionIndexRange: an index typed at the command line must be an
// address of the storage. State indexes directly, so x and set reject
// anything outside 0..depth-1 instead of wrapping it, and watch anything
// but -1 (every element), through State.Watch.
func TestSessionIndexRange(t *testing.T) {
	s, out := newSession(t, "halt")
	for _, cmd := range []string{"x RF 9", "x RF 6 3", "set RF 8 1", "set RF -1 5", "watch RF 8"} {
		if err := s.Execute(cmd); err == nil || !strings.Contains(err.Error(), "RF index") || !strings.Contains(err.Error(), "outside 0..7") {
			t.Errorf("%s: err = %v, want the range 0..7", cmd, err)
		}
	}
	exec(t, s, "set RF 7 1", "x RF 0 8", "watch RF 7")
	if !strings.Contains(out.String(), "RF[7] = 8'h1 (1)") {
		t.Fatalf("output: %q", out.String())
	}
	// A count below 1 is an error, as step's is, not a command that
	// prints nothing (x) or runs without a limit (run).
	for cmd, want := range map[string]string{
		"x RF 0 0":  `bad count "0"`,
		"x RF 0 -3": `bad count "-3"`,
		"run 0":     `bad limit "0"`,
		"run -5":    `bad limit "-5"`,
		"step 0":    `bad step count "0"`,
	} {
		if err := s.Execute(cmd); err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %s", cmd, err, want)
		}
	}
}
