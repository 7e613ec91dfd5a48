// Command paper regenerates every table of the paper's evaluation (§6) and
// the ablations DESIGN.md defines, in one run:
//
//	paper                    everything (Table 1 uses a 2 s budget per model)
//	paper -table 1           just the simulation-speed comparison
//	paper -table 2           just the synthesis statistics
//	paper -ablation all      just the ablations
//	paper -budget 500ms      quicker (noisier) Table 1
//	paper -cosim-workers 8   Verilog co-simulation fan-out (0 = NumCPU)
//
// An unknown -table or -ablation value, a -gauntlet-n below 1 and a
// negative -cosim-workers or -budget are usage errors (exit status 2), as
// is a flag the chosen mode never reads (see checkFlags).
//
// The suite registry adds the workload-gauntlet modes, which skip the
// tables above:
//
//	paper -suite                      run every registered workload on every
//	                                  zoo machine with reference checking
//	paper -suite -suite-filter dsp    only workloads tagged "dsp"
//	paper -suite -suite-json f.json   also write the report as JSON
//	paper -suite -suite-backend aot   select the xsim backend
//	paper -gauntlet -gauntlet-n 25 -seed 1
//	                                  differential fuzz gauntlet: random
//	                                  machine × registry kernel across
//	                                  interp/aot/cosim; byte-
//	                                  identical rerun for a fixed seed
//	paper -gauntlet -seed-replay S    replay one trial from a divergence
//	                                  report's printed seed
//	paper -gauntlet -gauntlet-json f.json  write the full report as JSON
//
// Table 1's Verilog measurement runs whole workloads concurrently on the
// internal/cosim worker pool; the report includes the aggregate throughput
// and the measured parallel-vs-serial speedup alongside the per-instance
// speed the Speedup column is computed from.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/experiments"
	"repro/internal/suite"
	"repro/internal/xsim"
)

// The accepted -table and -ablation values.
var (
	tableChoices    = []string{"1", "2", "all", "none"}
	ablationChoices = []string{"sharing", "decode", "stalls", "all", "none"}
)

// The flags each run mode reads besides its own -suite or -gauntlet.
var (
	tableFlags    = []string{"table", "ablation", "budget", "cosim-workers"}
	suiteFlags    = []string{"suite-filter", "suite-json", "suite-backend"}
	gauntletFlags = []string{"gauntlet-n", "seed", "seed-replay", "gauntlet-json", "gauntlet-no-cosim"}
)

// checkFlags returns an error when the command line (set holds the names
// of the flags given) asks for two modes, or gives a flag its mode never
// reads: a -suite run reads no gauntlet or table flag, a -gauntlet run no
// suite or table flag, and a table run no suite or gauntlet flag.
func checkFlags(set map[string]bool, suiteRun, gauntlet bool) error {
	mode, unread := "table", [][]string{suiteFlags, gauntletFlags}
	switch {
	case suiteRun && gauntlet:
		return fmt.Errorf("-suite and -gauntlet are separate runs; give one")
	case suiteRun:
		mode, unread = "-suite", [][]string{gauntletFlags, tableFlags}
	case gauntlet:
		mode, unread = "-gauntlet", [][]string{suiteFlags, tableFlags}
	}
	var unused []string
	for _, names := range unread {
		for _, name := range names {
			if set[name] {
				unused = append(unused, "-"+name)
			}
		}
	}
	if len(unused) > 0 {
		return fmt.Errorf("a %s run does not use %s", mode, strings.Join(unused, " "))
	}
	return nil
}

// checkChoice returns an error unless val is one of the flag's choices.
func checkChoice(name, val string, choices []string) error {
	for _, c := range choices {
		if val == c {
			return nil
		}
	}
	return fmt.Errorf("unknown -%s %q (want %s)", name, val, strings.Join(choices, " | "))
}

// checkAtLeast returns an error when a numeric flag is below its least
// meaningful value, instead of letting the run reinterpret it.
func checkAtLeast[T ~int | ~int64](name string, val, least T) error {
	if val < least {
		return fmt.Errorf("-%s %v: want at least %v", name, val, least)
	}
	return nil
}

func main() {
	table := flag.String("table", "all", "which table to regenerate: "+strings.Join(tableChoices, " | "))
	ablation := flag.String("ablation", "all", "which ablation: "+strings.Join(ablationChoices, " | "))
	budget := flag.Duration("budget", 2*time.Second, "measurement budget per simulator for Table 1")
	cosimWorkers := flag.Int("cosim-workers", 0, "parallel Verilog co-simulation workers for Table 1 (0 = NumCPU)")

	suiteRun := flag.Bool("suite", false, "run the benchmark suite (registry workloads × machine zoo) and skip the tables")
	suiteFilter := flag.String("suite-filter", "", "restrict the suite to workloads with this tag (or this exact name)")
	suiteJSON := flag.String("suite-json", "", "also write the suite report as JSON here")
	suiteBackend := flag.String("suite-backend", "", "xsim backend for the suite: interp | aot (default interp)")

	gauntlet := flag.Bool("gauntlet", false, "run the differential fuzz gauntlet and skip the tables")
	gauntletN := flag.Int("gauntlet-n", 10, "gauntlet trial count")
	seed := flag.Int64("seed", 1, "gauntlet base seed (per-trial seeds derive from it)")
	seedReplay := flag.Int64("seed-replay", 0, "replay a single gauntlet trial from this per-trial seed (from a divergence report)")
	gauntletJSON := flag.String("gauntlet-json", "", "also write the gauntlet report as JSON here")
	gauntletNoCosim := flag.Bool("gauntlet-no-cosim", false, "skip the synthesized-Verilog gauntlet leg")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, err := range []error{
		checkFlags(set, *suiteRun, *gauntlet),
		checkChoice("table", *table, tableChoices),
		checkChoice("ablation", *ablation, ablationChoices),
		checkAtLeast("gauntlet-n", *gauntletN, 1),
		checkAtLeast("cosim-workers", *cosimWorkers, 0),
		checkAtLeast("budget", *budget, 0),
	} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "paper:", err)
			flag.Usage()
			os.Exit(2)
		}
	}

	if *suiteRun {
		if err := runSuite(*suiteFilter, *suiteBackend, *suiteJSON); err != nil {
			fatal(err)
		}
		return
	}
	if *gauntlet {
		if err := runGauntlet(*gauntletN, *seed, *seedReplay, *gauntletJSON, *gauntletNoCosim); err != nil {
			fatal(err)
		}
		return
	}

	if *table == "1" || *table == "all" {
		t1, err := experiments.RunTable1Opts(experiments.Table1Options{Budget: *budget, Workers: *cosimWorkers})
		if err != nil {
			fatal(err)
		}
		fmt.Println(t1.Render())
	}
	if *table == "2" || *table == "all" {
		rows, err := experiments.RunTable2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderTable2(rows))
	}
	if *ablation == "sharing" || *ablation == "all" {
		rows, err := experiments.RunAblationSharing()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderSharing(rows))
	}
	if *ablation == "decode" || *ablation == "all" {
		rows, err := experiments.RunAblationDecode()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderDecode(rows))
	}
	if *ablation == "stalls" || *ablation == "all" {
		rows, err := experiments.RunAblationStalls()
		if err != nil {
			fatal(err)
		}
		fmt.Println(experiments.RenderStalls(rows))
	}
}

// runSuite runs the registry workloads across the zoo and renders the
// report; the filter matches a tag first, then an exact workload name.
func runSuite(filter, backend, jsonPath string) error {
	f := suite.Filter{Tag: filter}
	if filter != "" && len(suite.All(f)) == 0 {
		f = suite.Filter{Name: filter}
	}
	rep, err := experiments.RunSuite(f, experiments.SuiteOptions{Backend: xsim.Backend(backend)})
	if err != nil {
		return err
	}
	fmt.Println(rep.Render())
	if jsonPath != "" {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		if err := atomicfile.WriteFile(jsonPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if rep.Verified == 0 {
		return fmt.Errorf("suite: no workload matched filter %q", filter)
	}
	return nil
}

// runGauntlet runs (or replays one trial of) the differential gauntlet.
func runGauntlet(n int, seed, seedReplay int64, jsonPath string, noCosim bool) error {
	o := suite.GauntletOptions{N: n, Seed: seed, NoCosim: noCosim}
	var rep *suite.GauntletReport
	if seedReplay != 0 {
		tr := suite.RunTrial(0, seedReplay, o)
		rep = &suite.GauntletReport{N: 1, Seed: seedReplay, Cosim: !noCosim,
			Trials: []suite.Trial{tr}, Divergences: len(tr.Divergences)}
		if tr.Err != "" {
			rep.Errors = 1
		}
	} else {
		rep = suite.RunGauntlet(o)
	}
	fmt.Println(rep.Render())
	if jsonPath != "" {
		b, err := gauntletJSONBytes(rep)
		if err != nil {
			return err
		}
		if err := atomicfile.WriteFile(jsonPath, b, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
	if !rep.Clean() {
		return fmt.Errorf("gauntlet: %d divergence(s), %d error(s)", rep.Divergences, rep.Errors)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paper:", err)
	os.Exit(1)
}

// gauntletJSONBytes serializes a gauntlet report deterministically (stable
// field order, trailing newline) so same-seed reruns are byte-identical.
func gauntletJSONBytes(r *suite.GauntletReport) ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
