// Command hgen runs the hardware synthesis system of paper §4: it compiles
// an ISDL description into a synthesizable Verilog model and reports cycle
// length, die size and the area breakdown against the LSI10K-flavoured
// technology library (the Table 2 statistics).
//
// Usage:
//
//	hgen -m spam                       report synthesis statistics
//	hgen -m spam2 -o proc.v            also write the Verilog model
//	hgen -m spam -sharing off          ablation: disable resource sharing
//	hgen -m spam -decode comparator    ablation: naive decode logic
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/hgen"
	"repro/internal/machines"
	"repro/internal/tech"
)

func main() {
	machine := flag.String("m", "", "machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	out := flag.String("o", "", "write the generated Verilog to this file")
	sharing := flag.String("sharing", "full", "resource sharing: off | rules | full")
	decodeStyle := flag.String("decode", "twolevel", "decode logic: twolevel | comparator")
	retime := flag.Float64("retime", 0, "retime pipelines toward this cycle length in ns (§6.2 pipeline optimization)")
	flag.Parse()
	if *machine == "" {
		fmt.Fprintln(os.Stderr, "usage: hgen -m <machine> [-o out.v] [-sharing off|rules|full] [-decode twolevel|comparator]")
		os.Exit(2)
	}
	opts, err := options(*sharing, *decodeStyle)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hgen:", err)
		flag.Usage()
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

	if *retime > 0 {
		res, err := hgen.RetimeForCycle(d, tech.LSI10K(), *retime)
		if err != nil {
			fatal(err)
		}
		fmt.Print(res.Report())
		d = res.Desc
		fmt.Println()
	}

	r, err := repro.Synthesize(d, nil, opts)
	if err != nil {
		// Machines with Stack storage or multi-word instructions still get
		// the cost model.
		opts.EmitVerilog = false
		r, err = repro.Synthesize(d, nil, opts)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "hgen: note: Verilog model skipped (unsupported construct); cost model only")
	}
	fmt.Print(r.Report())
	if *out != "" {
		if r.VerilogText == "" {
			fatal(fmt.Errorf("no Verilog was generated"))
		}
		if err := atomicfile.WriteFile(*out, []byte(r.VerilogText), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d lines)\n", *out, r.VerilogLines)
	}
}

// options maps the -sharing and -decode flag values to synthesis options;
// the rest stay at hgen.DefaultOptions (Verilog emission on).
func options(sharing, decode string) (hgen.Options, error) {
	opts := hgen.DefaultOptions()
	switch sharing {
	case "off":
		opts.Sharing = hgen.ShareOff
	case "rules":
		opts.Sharing = hgen.ShareRules
	case "full":
		opts.Sharing = hgen.ShareRulesAndConstraints
	default:
		return hgen.Options{}, fmt.Errorf("unknown -sharing %q (want off | rules | full)", sharing)
	}
	switch decode {
	case "twolevel":
		opts.Decode = hgen.DecodeTwoLevel
	case "comparator":
		opts.Decode = hgen.DecodeComparator
	default:
		return hgen.Options{}, fmt.Errorf("unknown -decode %q (want twolevel | comparator)", decode)
	}
	return opts, nil
}

// fatal prints err with the program prefix once (errors from internal/hgen
// already start with it) and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hgen: "+strings.TrimPrefix(err.Error(), "hgen: "))
	os.Exit(1)
}
