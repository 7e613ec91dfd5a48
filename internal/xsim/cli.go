package xsim

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/state"
	"repro/internal/traceprof"
)

// Session is the command-line / batch interface of an XSIM simulator
// (§3.1-3.2: "a command-line interface with full batch-file support" and
// "full debugging support — breakpoints, state monitors and attached
// commands"). The graphical Tcl/Tk interface of the original is a
// presentation layer and is not reproduced; every capability it exposed is
// available as a command here.
type Session struct {
	Sim *Simulator
	Out io.Writer
	// Open loads a named file for the load/source commands; the cmd tools
	// install os.ReadFile, tests install a map lookup.
	Open func(name string) ([]byte, error)
	// Create opens a named file for writing (trace command).
	Create func(name string) (io.WriteCloser, error)

	prog     *asm.Program
	profile  *traceprof.Profile
	watchIDs []int
	// attached maps an address to commands executed (and then resumed
	// past) whenever execution reaches it.
	attached map[int][]string
	quit     bool
}

// NewSession wraps a simulator in a command session writing to out.
func NewSession(sim *Simulator, out io.Writer) *Session {
	return &Session{Sim: sim, Out: out, attached: map[int][]string{}}
}

// Quit reports whether the quit command has been issued.
func (s *Session) Quit() bool { return s.quit }

// LoadProgram installs an assembled program directly (bypassing the file
// system).
func (s *Session) LoadProgram(p *asm.Program) error {
	s.prog = p
	return s.Sim.Load(p)
}

// Program returns the loaded program, if any.
func (s *Session) Program() *asm.Program { return s.prog }

// RunScript executes a batch file: one command per line, '#' comments.
func (s *Session) RunScript(r io.Reader) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() && !s.quit {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if err := s.Execute(line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// REPL reads commands interactively until quit or EOF. Command errors are
// printed, not fatal.
func (s *Session) REPL(in io.Reader) {
	sc := bufio.NewScanner(in)
	fmt.Fprintf(s.Out, "xsim %s> ", s.Sim.d.Name)
	for sc.Scan() && !s.quit {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			if err := s.Execute(line); err != nil {
				fmt.Fprintf(s.Out, "error: %v\n", err)
			}
		}
		if !s.quit {
			fmt.Fprintf(s.Out, "xsim %s> ", s.Sim.d.Name)
		}
	}
}

// addr resolves a numeric or symbolic address.
func (s *Session) addr(arg string) (int, error) {
	if s.prog != nil {
		if a, ok := s.prog.Symbols[arg]; ok {
			return a, nil
		}
	}
	base := 10
	t := arg
	if strings.HasPrefix(arg, "0x") {
		base, t = 16, arg[2:]
	}
	n, err := strconv.ParseInt(t, base, 32)
	if err != nil {
		return 0, fmt.Errorf("bad address %q", arg)
	}
	return int(n), nil
}

// Execute runs one command line.
func (s *Session) Execute(line string) error {
	args := strings.Fields(line)
	cmd, args := args[0], args[1:]
	switch cmd {
	case "help":
		fmt.Fprint(s.Out, helpText)
	case "quit", "q":
		s.quit = true
	case "echo":
		fmt.Fprintln(s.Out, strings.Join(args, " "))
	case "load":
		if len(args) != 1 {
			return fmt.Errorf("usage: load <file.xbin>")
		}
		if s.Open == nil {
			return fmt.Errorf("load: no file access in this session")
		}
		blob, err := s.Open(args[0])
		if err != nil {
			return err
		}
		p, err := asm.Unmarshal(s.Sim.d, blob)
		if err != nil {
			return err
		}
		return s.LoadProgram(p)
	case "source":
		if len(args) != 1 {
			return fmt.Errorf("usage: source <script>")
		}
		if s.Open == nil {
			return fmt.Errorf("source: no file access in this session")
		}
		blob, err := s.Open(args[0])
		if err != nil {
			return err
		}
		return s.RunScript(strings.NewReader(string(blob)))
	case "run", "r":
		limit := int64(0)
		if len(args) == 1 {
			n, err := strconv.ParseInt(args[0], 10, 64)
			if err != nil || n < 1 {
				return fmt.Errorf("bad limit %q", args[0])
			}
			limit = n
		}
		return s.runWithAttached(limit)
	case "step", "s":
		n := 1
		if len(args) == 1 {
			v, err := strconv.Atoi(args[0])
			if err != nil || v < 1 {
				return fmt.Errorf("bad step count %q", args[0])
			}
			n = v
		}
		for i := 0; i < n && !s.Sim.Halted(); i++ {
			pc := int(s.Sim.State().PC().Uint64())
			text, err := s.Sim.Disassemble(pc)
			if err != nil {
				return err
			}
			if err := s.Sim.Step(); err != nil {
				return err
			}
			fmt.Fprintf(s.Out, "%04x  %s\n", pc, text)
		}
		s.reportStop()
	case "break", "b":
		if len(args) != 1 {
			return fmt.Errorf("usage: break <addr|symbol>")
		}
		a, err := s.addr(args[0])
		if err != nil {
			return err
		}
		s.Sim.AddBreakpoint(a)
	case "unbreak":
		if len(args) != 1 {
			return fmt.Errorf("usage: unbreak <addr|symbol>")
		}
		a, err := s.addr(args[0])
		if err != nil {
			return err
		}
		if !s.Sim.RemoveBreakpoint(a) {
			return fmt.Errorf("no breakpoint at %#x", a)
		}
	case "breaks":
		for _, a := range s.Sim.Breakpoints() {
			fmt.Fprintf(s.Out, "%04x\n", a)
		}
	case "attach":
		if len(args) < 2 {
			return fmt.Errorf("usage: attach <addr|symbol> <command...>")
		}
		a, err := s.addr(args[0])
		if err != nil {
			return err
		}
		s.attached[a] = append(s.attached[a], strings.Join(args[1:], " "))
		s.Sim.AddBreakpoint(a)
	case "watch":
		if len(args) < 1 || len(args) > 2 {
			return fmt.Errorf("usage: watch <storage> [index]")
		}
		idx := -1 // every element
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil {
				return fmt.Errorf("bad index %q", args[1])
			}
			idx = v // State.Watch checks the range
		}
		id, err := s.Sim.State().Watch(args[0], idx, func(ev state.ChangeEvent) {
			fmt.Fprintf(s.Out, "watch: %s\n", ev)
		})
		if err != nil {
			return err
		}
		s.watchIDs = append(s.watchIDs, id)
		fmt.Fprintf(s.Out, "watch %d installed\n", id)
	case "unwatch":
		if len(args) != 1 {
			return fmt.Errorf("usage: unwatch <id>")
		}
		id, err := strconv.Atoi(args[0])
		if err != nil || !s.Sim.State().Unwatch(id) {
			return fmt.Errorf("no watch %q", args[0])
		}
	case "x", "examine":
		return s.examine(args)
	case "set":
		if len(args) != 3 {
			return fmt.Errorf("usage: set <storage> <index> <value>")
		}
		st, idx, err := s.storageIndex(args[0], args[1])
		if err != nil {
			return err
		}
		v, err := s.addr(args[2]) // reuse numeric/symbol parsing
		if err != nil {
			return err
		}
		s.Sim.State().Set(st.Name, idx, bitvec.FromInt64(st.Width, int64(v)))
	case "pc":
		fmt.Fprintf(s.Out, "%04x\n", s.Sim.State().PC().Uint64())
	case "setpc":
		if len(args) != 1 {
			return fmt.Errorf("usage: setpc <addr|symbol>")
		}
		a, err := s.addr(args[0])
		if err != nil {
			return err
		}
		s.Sim.State().SetPC(bitvec.FromUint64(s.Sim.d.PC().Width, uint64(a)))
	case "disasm":
		start := int(s.Sim.State().PC().Uint64())
		count := 4
		if len(args) >= 1 {
			a, err := s.addr(args[0])
			if err != nil {
				return err
			}
			start = a
		}
		if len(args) == 2 {
			v, err := strconv.Atoi(args[1])
			if err != nil || v < 1 {
				return fmt.Errorf("bad count %q", args[1])
			}
			count = v
		}
		pc := start
		for i := 0; i < count; i++ {
			text, err := s.Sim.Disassemble(pc)
			if err != nil {
				fmt.Fprintf(s.Out, "%04x  <illegal>\n", pc)
				pc++
				continue
			}
			ii, _ := s.Sim.fetch(pc) // cached: Disassemble just decoded it
			fmt.Fprintf(s.Out, "%04x  %s\n", pc, text)
			pc += ii.inst.Size
		}
	case "stats":
		fmt.Fprint(s.Out, s.Sim.Stats().Summary(s.Sim.d))
	case "perf":
		fmt.Fprint(s.Out, s.Sim.Perf().Summary())
	case "trace":
		if len(args) != 1 {
			return fmt.Errorf("usage: trace <file|off>")
		}
		if args[0] == "off" {
			s.Sim.SetTrace(nil)
			return nil
		}
		if s.Create == nil {
			return fmt.Errorf("trace: no file access in this session")
		}
		w, err := s.Create(args[0])
		if err != nil {
			return err
		}
		s.Sim.SetTrace(w)
	case "profile":
		// The in-process trace consumer of §3.1 ("directly to a
		// processing program").
		if len(args) < 1 {
			return fmt.Errorf("usage: profile on|off|report [top]")
		}
		switch args[0] {
		case "on":
			s.profile = traceprof.New()
			s.Sim.SetTrace(s.profile.Writer())
		case "off":
			s.Sim.SetTrace(nil)
			s.profile = nil
		case "report":
			if s.profile == nil {
				return fmt.Errorf("profile: not enabled (use profile on)")
			}
			if s.prog == nil {
				return fmt.Errorf("profile: no program loaded")
			}
			top := 10
			if len(args) == 2 {
				v, err := strconv.Atoi(args[1])
				if err != nil {
					return fmt.Errorf("bad count %q", args[1])
				}
				top = v
			}
			return s.profile.Report(s.Out, s.Sim.d, s.prog, top)
		default:
			return fmt.Errorf("usage: profile on|off|report [top]")
		}
	case "reset":
		s.Sim.Reset()
		if s.prog != nil {
			return s.Sim.Load(s.prog)
		}
	case "symbols":
		if s.prog == nil {
			return fmt.Errorf("no program loaded")
		}
		names := s.prog.SymbolsSorted()
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(s.Out, "%-16s %04x\n", n, s.prog.Symbols[n])
		}
	default:
		return fmt.Errorf("unknown command %q (try help)", cmd)
	}
	return nil
}

// runWithAttached runs the simulator, executing attached commands and
// resuming when it stops at an address that has them.
func (s *Session) runWithAttached(limit int64) error {
	for {
		err := s.Sim.Run(limit)
		if err == ErrBreakpoint {
			pc := int(s.Sim.State().PC().Uint64())
			cmds, ok := s.attached[pc]
			if ok {
				for _, c := range cmds {
					if err := s.Execute(c); err != nil {
						return err
					}
				}
				// Step over the attachment point and resume.
				if err := s.Sim.Step(); err != nil {
					return err
				}
				continue
			}
			fmt.Fprintf(s.Out, "breakpoint at %04x\n", pc)
			return nil
		}
		if err != nil {
			fmt.Fprintf(s.Out, "stopped: %v\n", err)
			return nil
		}
		s.reportStop()
		return nil
	}
}

func (s *Session) reportStop() {
	if s.Sim.Halted() {
		fmt.Fprintf(s.Out, "halted at cycle %d (%d instructions)\n", s.Sim.Cycle(), s.Sim.Stats().Instructions)
	}
}

func (s *Session) examine(args []string) error {
	if len(args) < 1 || len(args) > 3 {
		return fmt.Errorf("usage: x <storage> [index [count]]")
	}
	index := "0"
	if len(args) >= 2 {
		index = args[1]
	}
	st, idx, err := s.storageIndex(args[0], index)
	if err != nil {
		return err
	}
	count := 1
	if len(args) == 3 {
		v, err := strconv.Atoi(args[2])
		if err != nil || v < 1 {
			return fmt.Errorf("bad count %q", args[2])
		}
		count = v
	}
	if count > 1 {
		if err := checkIndex(st, idx+count-1); err != nil {
			return err
		}
	}
	for i := 0; i < count; i++ {
		v := s.Sim.State().Get(st.Name, idx+i)
		if st.Kind.Addressed() {
			fmt.Fprintf(s.Out, "%s[%d] = %s (%d)\n", st.Name, idx+i, v, v.Uint64())
		} else {
			fmt.Fprintf(s.Out, "%s = %s (%d)\n", st.Name, v, v.Uint64())
		}
	}
	return nil
}

// storageIndex resolves a storage name and an element index typed by the
// user. State indexes addresses directly, so an index outside
// 0..Depth-1 is an error, never a wrapped access.
func (s *Session) storageIndex(name, index string) (*isdl.Storage, int, error) {
	st, ok := s.Sim.d.StorageByName[name]
	if !ok {
		return nil, 0, fmt.Errorf("unknown storage %s", name)
	}
	idx, err := strconv.Atoi(index)
	if err != nil {
		return nil, 0, fmt.Errorf("bad index %q", index)
	}
	return st, idx, checkIndex(st, idx)
}

func checkIndex(st *isdl.Storage, idx int) error {
	if idx < 0 || idx >= st.Depth {
		return fmt.Errorf("%s index %d outside 0..%d", st.Name, idx, st.Depth-1)
	}
	return nil
}

const helpText = `commands:
  load <file.xbin>          load a program image
  source <script>           run a batch command file
  run [n] | step [n]        execute (n >= 1 instructions)
  break/unbreak <addr|sym>  manage breakpoints; breaks lists them
  attach <addr> <command>   run a command whenever addr is reached
  watch <storage> [idx]     print state changes; unwatch <id>
  x <storage> [idx [n]]     examine state (n >= 1 elements)
  set <storage> <idx> <v>   modify state
  pc | setpc <addr|sym>     program counter
  disasm [addr [n]]         disassemble (n >= 1 instructions)
  trace <file|off>          execution address trace
  profile on|off|report     in-process execution profiling
  perf                      simulator performance counters (MIPS, caches)
  stats | symbols | reset | echo | quit
`
