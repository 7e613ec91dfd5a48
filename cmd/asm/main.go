// Command asm is the retargetable assembler and disassembler of the
// exploration loop (paper Figure 1).
//
// Usage:
//
//	asm -m <machine> prog.s            assemble to prog.xbin
//	asm -m <machine> -o out.xbin prog.s
//	asm -m <machine> -d prog.xbin      disassemble
//	asm -m <machine> -l prog.s         print an address/hex listing
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/machines"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	out := flag.String("o", "", "output file (default: input with .xbin)")
	disasm := flag.Bool("d", false, "disassemble an .xbin file")
	listing := flag.Bool("l", false, "print a listing instead of writing output")
	flag.Parse()
	if *machine == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: asm -m <machine> [-d] [-l] [-o out] <file>")
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

	if *disasm {
		p, err := repro.UnmarshalProgram(d, blob)
		if err != nil {
			fatal(err)
		}
		fmt.Print(repro.Disassemble(p))
		return
	}

	p, err := repro.Assemble(d, string(blob))
	if err != nil {
		fatal(err)
	}
	if *listing {
		fmt.Print(p.Listing())
		return
	}
	name := *out
	if name == "" {
		name = strings.TrimSuffix(flag.Arg(0), ".s") + ".xbin"
	}
	if err := atomicfile.WriteFile(name, repro.MarshalProgram(p), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d words, %d symbols\n", name, len(p.Words), len(p.Symbols))
}

// fatal prints err with the program prefix once (errors from internal/asm
// already start with it) and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "asm: "+strings.TrimPrefix(err.Error(), "asm: "))
	os.Exit(1)
}
