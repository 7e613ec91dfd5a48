// Command kcc is the retargetable compiler of the exploration loop (the
// AVIV role in paper Figure 1): it compiles the kernel language to assembly
// for any classifiable ISDL machine.
//
// Usage:
//
//	kcc -m spam2 kernel.k              print assembly
//	kcc -m spam2 -o out.s kernel.k     write assembly
//	kcc -m spam2 -run kernel.k         compile, assemble, simulate, stats
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/compiler"
	"repro/internal/machines"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	out := flag.String("o", "", "output assembly file")
	run := flag.Bool("run", false, "also assemble, simulate to halt, and print statistics")
	noPack := flag.Bool("nopack", false, "emit one operation per instruction (disable VLIW packing)")
	flag.Parse()
	if *machine == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: kcc -m <machine> [-o out.s] [-run] <kernel.k>")
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
	blob, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	asmText, err := compiler.CompileWithOptions(d, string(blob), compiler.Options{NoPacking: *noPack})
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := atomicfile.WriteFile(*out, []byte(asmText), 0o644); err != nil {
			fatal(err)
		}
	} else if !*run {
		fmt.Print(asmText)
	}
	if *run {
		p, err := repro.Assemble(d, asmText)
		if err != nil {
			fatal(err)
		}
		sim := repro.NewSimulator(d)
		if err := sim.Load(p); err != nil {
			fatal(err)
		}
		if err := sim.Run(100_000_000); err != nil {
			fatal(err)
		}
		fmt.Print(sim.Stats().Summary(d))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kcc:", err)
	os.Exit(1)
}
