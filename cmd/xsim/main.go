// Command xsim runs the generated instruction-level simulator (paper §3)
// with the command-line and batch interface of §3.1: breakpoints, state
// monitors, attached commands, execution traces and utilization statistics.
//
// Usage:
//
//	xsim -m <machine>                       interactive session
//	xsim -m <machine> -s prog.s -run        assemble, run to halt, stats
//	xsim -m <machine> prog.xbin -batch f    load image, run a batch script
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/xsim"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	source := flag.String("s", "", "assembly source to assemble and load")
	batch := flag.String("batch", "", "batch command script to execute")
	run := flag.Bool("run", false, "run to halt and print statistics")
	metricsOut := flag.String("metrics-out", "", "write simulator perf counters as metrics JSON here")
	flag.Parse()
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "usage: xsim -m <machine> [-s prog.s | prog.xbin] [-batch script] [-run]")
		os.Exit(2)
	}
	src, err := machines.Resolve(*machine)
	if err != nil {
		fatal(err)
	}
	d, err := repro.ParseISDL(src)
	if err != nil {
		fatal(err)
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

// fatal prints err with the program prefix once (errors from internal/xsim
// already start with it) and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xsim: "+strings.TrimPrefix(err.Error(), "xsim: "))
	os.Exit(1)
}
