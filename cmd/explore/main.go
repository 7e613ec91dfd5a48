// Command explore runs architecture exploration (paper §1, Figure 1):
// starting from a base ISDL description, it mutates the instruction set,
// recompiles the kernel with the retargetable compiler, re-evaluates every
// candidate with the generated simulator and hardware model, and searches
// the run-time/area/power objective with a pluggable strategy.
//
// Usage:
//
//	explore -m spam2 -k kernel.k [-strategy hill|beam|pareto] [-beam 4]
//	        [-max-runtime us] [-max-area cells] [-max-power mw]
//	        [-frontier-out frontier.json|frontier.csv] [-frontier-cap n]
//	        [-restarts n] [-seed s] [-iters 8] [-workers n]
//	        [-no-cache]
//	        [-store dir:PATH|http://HOST] [-o best.isdl]
//
// Strategies (-strategy, docs/EXPLORE.md):
//
//   - hill (default): accept the best improving neighbour each iteration,
//     stop at the first local optimum.
//   - beam: keep the -beam best candidates alive per iteration and
//     evaluate the union of their neighbours (deduplicated by canonical
//     ISDL), escaping optima hill climbing stops at.
//   - pareto: keep the whole non-dominated (run time, area, power)
//     frontier instead of a scalar top-K, under optional hard constraints
//     (-max-runtime/-max-area/-max-power; violating candidates are scored
//     but never enter the frontier). One run answers every objective
//     weighting; -frontier-out emits the trade-off curve as JSON or CSV
//     (by extension) for plotting, and -frontier-cap bounds the frontier
//     by deterministic crowding-distance truncation.
//
// -restarts n additionally re-runs the chosen strategy from n seeded
// random perturbations of the base (deterministic for a fixed -seed) and
// reports each restart's best plus the global winner.
//
// Neighbour candidates within an iteration are evaluated concurrently
// (-workers, default NumCPU), and whole evaluations and synthesis figures
// are memoized across iterations and restarts (see docs/PIPELINE.md); for
// every strategy the result is bit-identical to a sequential, uncached
// run.
//
// -store attaches a shared artifact store (docs/PIPELINE.md,
// docs/SERVICE.md): dir:PATH is a directory any number of concurrent
// processes may share, http://HOST is a cmd/served daemon. Whole
// evaluations and synthesis figures are read from and written through to
// the store, so two explorers — in one run after another, or on different
// machines — never evaluate the same architecture twice.
//
// The run is instrumented end to end (docs/OBSERVABILITY.md): -trace-out
// writes a Chrome trace_event file (open in chrome://tracing or
// ui.perfetto.dev), -metrics-out writes the metrics registry as JSON (or
// Prometheus text exposition when the filename ends in .prom), and a
// summary table of counters and per-stage latencies goes to stderr. All
// output files are written atomically (temp + rename), so a crash never
// leaves a truncated file behind.
//
// Fleet telemetry (docs/OBSERVABILITY.md "The fleet tier"):
//
//   - -remote http://HOST evaluates the kernel on a cmd/served daemon
//     instead of locally: one job is submitted (carrying this process's
//     trace context in X-Repro-Trace), and the daemon's queue-wait and
//     pipeline-stage spans come back merged into this run's trace, so
//     -trace-out shows the client → queue → stages → store timeline.
//   - -dash :PORT serves the debug surface while the exploration runs:
//     the live dashboard (GET /dash) plus /dash/data, /metrics and
//     /debug/flight — the handler cmd/served mounts — and
//     net/http/pprof under /debug/pprof/.
//   - SIGQUIT dumps the flight recorder (the last 256 completed spans)
//     to stderr without stopping the run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; exposed only with -dash
	"os"
	"strings"

	"repro"
	"repro/internal/atomicfile"
	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	machine := flag.String("m", "", "base machine: .isdl file or builtin ("+strings.Join(machines.ZooNames(), ", ")+")")
	kernelFile := flag.String("k", "", "kernel-language workload file")
	strategy := flag.String("strategy", "hill", "search strategy: hill (first local optimum), beam (top-K frontier) or pareto (non-dominated frontier)")
	beamWidth := flag.Int("beam", 4, "frontier width for -strategy beam")
	maxRuntime := flag.Float64("max-runtime", 0, "pareto hard constraint: maximum run time in us (0 = unconstrained)")
	maxArea := flag.Float64("max-area", 0, "pareto hard constraint: maximum die size in grid cells (0 = unconstrained)")
	maxPower := flag.Float64("max-power", 0, "pareto hard constraint: maximum power in mW (0 = unconstrained)")
	frontierOut := flag.String("frontier-out", "", "write the pareto frontier here as .json or .csv (by extension)")
	frontierCap := flag.Int("frontier-cap", 0, "cap the pareto frontier by crowding-distance truncation (0 = unbounded)")
	restarts := flag.Int("restarts", 0, "seeded random restarts around the chosen strategy (0 = none)")
	seed := flag.Int64("seed", 1, "perturbation seed for -restarts (fixed seed = byte-identical run)")
	iters := flag.Int("iters", 8, "maximum improvement iterations (per restart)")
	workers := flag.Int("workers", 0, "concurrent candidate evaluations per iteration (0 = NumCPU)")
	noCache := flag.Bool("no-cache", false, "disable evaluation memoization across iterations")
	storeSpec := flag.String("store", "", "shared artifact store: dir:PATH or http://HOST (cmd/served); see docs/SERVICE.md")
	out := flag.String("o", "", "write the winning ISDL description here")
	wRun := flag.Float64("w-runtime", 1, "objective weight: run time (us)")
	wArea := flag.Float64("w-area", 0.5, "objective weight: area (10k grid cells)")
	wPow := flag.Float64("w-power", 0.2, "objective weight: power (mW)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry here (JSON, or Prometheus text if the name ends in .prom)")
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON file here (chrome://tracing, Perfetto)")
	quietObs := flag.Bool("no-summary", false, "suppress the metrics summary table on stderr")
	remote := flag.String("remote", "", "evaluate on a cmd/served daemon (http://HOST) instead of locally; see docs/SERVICE.md")
	dashAddr := flag.String("dash", "", "serve the live dashboard, metrics, flight dump and pprof on this address (e.g. :8355) while running")
	flag.Parse()
	if *machine == "" || *kernelFile == "" {
		fmt.Fprintln(os.Stderr, "usage: explore -m <machine> -k <kernel.k> [-strategy hill|beam|pareto] [-beam w] [-max-area a -max-power p -frontier-out f.json] [-restarts n] [-seed s] [-iters n] [-o best.isdl]")
		os.Exit(2)
	}
	// Reject a meaningless objective before any evaluation runs: NaN,
	// negative or all-zero weights would otherwise silently score every
	// candidate into an accept test that never fires.
	weights := explore.Weights{Runtime: *wRun, Area: *wArea, Power: *wPow}
	if err := weights.Validate(); err != nil {
		fatal(err)
	}
	constraints := explore.Constraints{MaxRuntimeUs: *maxRuntime, MaxArea: *maxArea, MaxPowerMW: *maxPower}
	if err := constraints.Validate(); err != nil {
		fatal(err)
	}
	if *strategy != "pareto" {
		if constraints.Active() {
			fatal(fmt.Errorf("-max-runtime/-max-area/-max-power require -strategy pareto"))
		}
		if *frontierOut != "" {
			fatal(fmt.Errorf("-frontier-out requires -strategy pareto"))
		}
	}
	frontierWriter, err := frontierWriterFor(*frontierOut)
	if err != nil {
		fatal(err) // bad extension: fail before the run, not after
	}
	baseSrc, err := machines.Resolve(*machine)
	if err != nil {
		fatal(err)
	}
	kernel, err := os.ReadFile(*kernelFile)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	obs.DumpFlightOnQuit(reg, "explore")
	if *dashAddr != "" {
		sampler := obs.NewSampler(reg)
		sampler.Start()
		defer sampler.Stop()
		mux := obs.Handler(reg, sampler)
		mux.Handle("/debug/pprof/", http.DefaultServeMux)
		go func() {
			if err := http.ListenAndServe(*dashAddr, mux); err != nil {
				log.Println("explore: dashboard server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "explore: dashboard on http://localhost%s/dash\n", normalizeAddr(*dashAddr))
	}

	if *remote != "" {
		runRemote(*remote, *machine, baseSrc, string(kernel), reg, *metricsOut, *traceOut, *quietObs)
		return
	}

	var cache *core.StageCache
	if !*noCache {
		cache = core.NewStageCache()
		if *storeSpec != "" {
			st, err := blob.Open(*storeSpec)
			if err != nil {
				fatal(err)
			}
			// A tracing run tells the remote store who is asking, so a
			// traced daemon records its side of every transfer.
			if hc, ok := st.(*blob.HTTP); ok && *traceOut != "" {
				hc.SetTrace(obs.TraceContext{TraceID: reg.TraceID()})
			}
			cache.SetStore(st)
			fmt.Printf("sharing artifacts via %s\n", *storeSpec)
		}
	} else if *storeSpec != "" {
		fatal(fmt.Errorf("-store requires caching; drop -no-cache"))
	}

	opts := []explore.Option{
		explore.WithWeights(weights),
		explore.WithMaxIters(*iters),
		explore.WithWorkers(*workers),
		explore.WithLog(func(ev explore.Event) { fmt.Println(ev.Line) }),
		explore.WithObs(reg),
	}
	switch *strategy {
	case "hill":
		// The default HillClimb strategy.
	case "beam":
		opts = append(opts, explore.WithBeam(*beamWidth))
	case "pareto":
		opts = append(opts, explore.WithPareto(*frontierCap, constraints))
	default:
		fatal(fmt.Errorf("unknown -strategy %q (want hill, beam or pareto)", *strategy))
	}
	if *restarts > 0 {
		opts = append(opts, explore.WithRestarts(*restarts, *seed))
	}
	if *noCache {
		opts = append(opts, explore.WithoutCache())
	} else {
		opts = append(opts, explore.WithCache(cache))
	}
	res, err := explore.New(baseSrc, string(kernel), opts...).Run()
	if err != nil {
		fatal(err)
	}
	writeObsOutputs(reg, *metricsOut, *traceOut, *quietObs)
	fmt.Println()
	fmt.Print(res.Report())
	if cache != nil {
		fmt.Printf("stage cache: %s\n", cache.StatsLine())
		if *storeSpec != "" {
			sh, sm, se := cache.StoreStats()
			fmt.Printf("blob store: %d served / %d absent / %d errors\n", sh, sm, se)
		}
	}
	if *frontierOut != "" {
		if err := atomicfile.WriteTo(*frontierOut, 0o644, func(w io.Writer) error {
			return frontierWriter(w, res.Frontier)
		}); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote frontier %s (%d points)\n", *frontierOut, len(res.Frontier))
	}
	if *out != "" {
		if err := atomicfile.WriteFile(*out, []byte(res.FinalSource), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// frontierWriterFor picks the -frontier-out serializer by file extension
// (nil name = no output requested).
func frontierWriterFor(name string) (func(io.Writer, []explore.FrontierPoint) error, error) {
	switch {
	case name == "":
		return nil, nil
	case strings.HasSuffix(name, ".json"):
		return explore.WriteFrontierJSON, nil
	case strings.HasSuffix(name, ".csv"):
		return explore.WriteFrontierCSV, nil
	}
	return nil, fmt.Errorf("-frontier-out %q: want a .json or .csv name", name)
}

// writeFileWith streams one of the registry exporters into a file,
// atomically: the write lands in a temp file that replaces name only on
// success, so a failing exporter leaves any existing file untouched.
func writeFileWith(name string, write func(io.Writer) error) error {
	return atomicfile.WriteTo(name, 0o644, write)
}

// writeObsOutputs emits the observability artifacts a run was asked
// for: the stderr summary, -metrics-out (JSON, or Prometheus text when
// the name ends in .prom) and -trace-out.
func writeObsOutputs(reg *obs.Registry, metricsOut, traceOut string, quiet bool) {
	if !quiet {
		fmt.Fprintln(os.Stderr)
		if err := reg.WriteText(os.Stderr); err != nil {
			fatal(err)
		}
	}
	if metricsOut != "" {
		exporter := reg.WriteMetricsJSON
		if strings.HasSuffix(metricsOut, ".prom") {
			exporter = reg.WriteProm
		}
		if err := writeFileWith(metricsOut, exporter); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote metrics %s\n", metricsOut)
	}
	if traceOut != "" {
		if err := writeFileWith(traceOut, reg.WriteTrace); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote trace %s (open in chrome://tracing or ui.perfetto.dev)\n", traceOut)
	}
}

// runRemote is the -remote thin-client mode: one evaluation on a
// cmd/served daemon, with the daemon's spans merged back under this
// process's trace. Builtin machine names travel as names (the daemon
// resolves them); anything else travels as raw ISDL source.
func runRemote(daemon, machineArg, baseSrc, kernel string, reg *obs.Registry, metricsOut, traceOut string, quiet bool) {
	req := service.JobRequest{Kernel: kernel, Workload: "kernel"}
	if _, builtin := repro.Machines()[machineArg]; builtin {
		req.Machine = machineArg
	} else {
		req.ISDL = baseSrc
	}
	reg.SetLaneName(0, "client")
	reg.SetLaneName(service.RemoteLaneBase+0, "served:jobs")
	reg.SetLaneName(service.RemoteLaneBase+1, "served:queue")

	root := reg.StartSpan("explore.remote")
	client := service.NewClient(daemon)
	st, err := client.EvaluateTraced(context.Background(), req, reg, root, 0)
	root.End()
	if err != nil {
		fatal(err)
	}
	ev := st.Eval
	fmt.Printf("remote evaluation %s on %s (cached=%v, %d daemon spans merged)\n",
		st.ID, daemon, st.Cached, len(st.Spans))
	if ev != nil {
		fmt.Printf("  machine=%s workload=%s\n", ev.Machine, ev.Workload)
		fmt.Printf("  cycles=%d instructions=%d\n", ev.Cycles, ev.Instructions)
		fmt.Printf("  runtime=%.3fus area=%.0fcells power=%.2fmW energy=%.3fuJ\n",
			ev.RuntimeUs, ev.AreaCells, ev.PowerMW, ev.EnergyUJ)
	}
	writeObsOutputs(reg, metricsOut, traceOut, quiet)
}

// normalizeAddr makes a bare ":port" printable as localhost:port.
func normalizeAddr(addr string) string {
	if strings.HasPrefix(addr, ":") {
		return addr
	}
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[i:]
	}
	return ":" + addr
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "explore:", err)
	os.Exit(1)
}
