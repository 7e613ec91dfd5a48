// Command xsim runs the generated instruction-level simulator (paper §3)
// with the command-line and batch interface of §3.1: breakpoints, state
// monitors, attached commands, execution traces and utilization statistics.
//
// Usage:
//
//	xsim -m <machine>                       interactive session
//	xsim -m <machine> -s prog.s -run        assemble, run to halt, stats
//	xsim -m <machine> prog.xbin -batch f    load image, run a batch script
//
// -backend selects the execution strategy (interp, the default, or aot; see
// docs/GENSIM.md). The aot backend generates and natively compiles a
// specialized simulator per description; it drives the -run batch path, and
// falls back to interp for interactive and -batch sessions (which need the
// in-process core) or when no Go toolchain is available.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	_ "repro/internal/gensim" // registers the aot backend
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/xsim"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	source := flag.String("s", "", "assembly source to assemble and load")
	batch := flag.String("batch", "", "batch command script to execute")
	run := flag.Bool("run", false, "run to halt and print statistics")
	backend := flag.String("backend", "", "simulator backend: interp (default) or aot")
	metricsOut := flag.String("metrics-out", "", "write simulator perf counters as metrics JSON here")
	flag.Parse()
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "usage: xsim -m <machine> [-s prog.s | prog.xbin] [-batch script] [-run] [-backend interp|aot]")
		os.Exit(2)
	}
	b, err := xsim.ParseBackend(*backend)
	if err != nil {
		fatal(err)
	}
	src, err := machines.Resolve(*machine)
	if err != nil {
		fatal(err)
	}
	d, err := repro.ParseISDL(src)
	if err != nil {
		fatal(err)
	}
	if b == xsim.BackendAOT && *run && *batch == "" {
		runEngine(d, b, *source, flag.Args(), *metricsOut)
		return
	}
	if b == xsim.BackendAOT {
		fmt.Fprintln(os.Stderr, "xsim: aot backend drives the -run batch path only; using interp for this session")
	}
	sim := xsim.New(d)
	sess := xsim.NewSession(sim, os.Stdout)
	sess.Open = os.ReadFile
	sess.Create = func(name string) (io.WriteCloser, error) { return os.Create(name) }

	if *source != "" {
		blob, err := os.ReadFile(*source)
		if err != nil {
			fatal(err)
		}
		p, err := repro.Assemble(d, string(blob))
		if err != nil {
			fatal(err)
		}
		if err := sess.LoadProgram(p); err != nil {
			fatal(err)
		}
	} else if flag.NArg() == 1 {
		if err := sess.Execute("load " + flag.Arg(0)); err != nil {
			fatal(err)
		}
	}

	switch {
	case *batch != "":
		f, err := os.Open(*batch)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := sess.RunScript(f); err != nil {
			fatal(err)
		}
	case *run:
		if err := sess.Execute("run"); err != nil {
			fatal(err)
		}
		if err := sess.Execute("stats"); err != nil {
			fatal(err)
		}
		if err := sess.Execute("perf"); err != nil {
			fatal(err)
		}
	default:
		sess.REPL(os.Stdin)
	}

	if *metricsOut != "" {
		reg := obs.NewRegistry()
		sim.Perf().Publish(reg)
		writeMetrics(reg, *metricsOut)
	}
}

// writeMetrics writes the registry to name atomically (temp + rename, so
// a crash or exporter error never truncates an existing file), as JSON
// or — when name ends in .prom — Prometheus text exposition.
func writeMetrics(reg *obs.Registry, name string) {
	exporter := reg.WriteMetricsJSON
	if strings.HasSuffix(name, ".prom") {
		exporter = reg.WriteProm
	}
	if err := atomicfile.WriteTo(name, 0o644, exporter); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote metrics %s\n", name)
}

// runEngine is the backend-generic batch path: load a program into an
// engine of the requested backend, run to halt, print the same stats and
// perf summaries as the session's run/stats/perf commands.
func runEngine(d *repro.Description, b xsim.Backend, source string, args []string, metricsOut string) {
	var p *repro.Program
	var err error
	switch {
	case source != "":
		blob, rerr := os.ReadFile(source)
		if rerr != nil {
			fatal(rerr)
		}
		p, err = repro.Assemble(d, string(blob))
	case len(args) == 1:
		blob, rerr := os.ReadFile(args[0])
		if rerr != nil {
			fatal(rerr)
		}
		p, err = repro.UnmarshalProgram(d, blob)
	default:
		fatal(fmt.Errorf("-run with -backend %s needs -s prog.s or a prog.xbin argument", b))
	}
	if err != nil {
		fatal(err)
	}
	eng, info, err := xsim.NewEngine(d, b)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()
	if info.FallbackReason != "" {
		fmt.Fprintf(os.Stderr, "xsim: %s backend unavailable (%s); using %s\n",
			info.Requested, info.FallbackReason, info.Used)
	}
	if err := eng.Load(p); err != nil {
		fatal(err)
	}
	runErr := eng.Run(0)
	st := eng.Stats()
	fmt.Printf("backend %s: halted=%v at cycle %d\n", info.Used, eng.Halted(), eng.Cycle())
	if runErr != nil {
		fmt.Printf("fault: %v\n", runErr)
	}
	fmt.Print(st.Summary(d))
	fmt.Print(eng.Perf().Summary())
	if metricsOut != "" {
		reg := obs.NewRegistry()
		eng.Perf().Publish(reg)
		writeMetrics(reg, metricsOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsim:", err)
	os.Exit(1)
}
