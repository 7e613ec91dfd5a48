// Command traceprof is the trace "processing program" of paper §3.1: it
// consumes an execution address trace produced by xsim (the `trace`
// command, or `xsim -s prog.s` with a trace file) and prints an execution
// profile — symbol attribution and the hottest instructions — against the
// program that produced it.
//
// Usage:
//
//	xsim -m toy -s prog.s -batch <(echo -e "trace t.log\nrun")
//	asm -m toy prog.s -o prog.xbin
//	traceprof -m toy -p prog.xbin t.log
//	traceprof -m toy -p prog.xbin -annotate t.log
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/machines"
	"repro/internal/traceprof"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	progFile := flag.String("p", "", "program (.xbin) the trace was recorded from")
	annotate := flag.Bool("annotate", false, "print an annotated per-address listing")
	top := flag.Int("top", 10, "number of hottest addresses to report")
	flag.Parse()
	if *machine == "" || *progFile == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceprof -m <machine> -p <prog.xbin> [-annotate] [-top n] <trace>")
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
	blob, err := os.ReadFile(*progFile)
	if err != nil {
		fatal(err)
	}
	p, err := repro.UnmarshalProgram(d, blob)
	if err != nil {
		fatal(err)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	prof, err := traceprof.Read(f)
	if err != nil {
		fatal(err)
	}
	if *annotate {
		if err := prof.Annotate(os.Stdout, d, p); err != nil {
			fatal(err)
		}
		return
	}
	if err := prof.Report(os.Stdout, d, p, *top); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceprof:", err)
	os.Exit(1)
}
