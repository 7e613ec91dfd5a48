// Command isdlc validates an ISDL machine description and reports its
// structure: storage, fields, operation signatures (Figure 3) and
// constraints. With -format it pretty-prints the canonical source.
//
// Usage:
//
//	isdlc [-format] <machine>
//
// where <machine> is an .isdl file or a builtin zoo name (toy, risc32,
// riscv5, spam, spam2).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/machines"
)

func main() {
	format := flag.Bool("format", false, "print the canonical ISDL source")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: isdlc [-format] <machine.isdl | %s>\n", strings.Join(machines.ZooNames(), " | "))
		os.Exit(2)
	}
	src, err := machines.Resolve(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "isdlc:", err)
		os.Exit(1)
	}
	d, err := repro.ParseISDL(src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "isdlc:", err)
		os.Exit(1)
	}
	if *format {
		fmt.Print(repro.FormatISDL(d))
		return
	}

	fmt.Printf("machine %s: %d-bit instruction word, %d fields\n", d.Name, d.WordWidth, len(d.Fields))
	fmt.Println("\nstorage:")
	for _, st := range d.Storage {
		if st.Kind.Addressed() {
			fmt.Printf("  %-18s %-18s %d x %d bits\n", st.Name, st.Kind, st.Depth, st.Width)
		} else {
			fmt.Printf("  %-18s %-18s %d bits\n", st.Name, st.Kind, st.Width)
		}
	}
	for _, a := range d.Aliases {
		fmt.Printf("  %-18s alias of %s\n", a.Name, a.Target)
	}
	fmt.Println("\ninstruction set:")
	for _, f := range d.Fields {
		fmt.Printf("  field %s (%d operations)\n", f.Name, len(f.Ops))
		for _, op := range f.Ops {
			fmt.Printf("    %-8s %s  cycle=%d stall=%d size=%d latency=%d usage=%d\n",
				op.Name, op.Sig.String(),
				op.Costs.Cycle, op.Costs.Stall, op.Costs.Size, op.Timing.Latency, op.Timing.Usage)
		}
	}
	if len(d.Constraints) > 0 {
		fmt.Println("\nconstraints:")
		for _, c := range d.Constraints {
			fmt.Printf("  %s\n", c.Text)
		}
	}
}
