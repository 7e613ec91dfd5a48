// Command bench is the repository's performance benchmark: five closed-loop
// workloads over the paper's loop (ISDL → compile → XSIM → HGEN → explore),
// each sample in a fresh process, every output checked against the golden
// reference.
//
//	go run . -seed 1 -out r.json [-trace spans.json]   # a full set
//	go run . -compare old.json new.json                # verdict per metric
//	go run . -workload zoo-sweep -seed 3 -seconds 20 -trace 0
//
// The last form measures one workload for a fixed time and prints one JSON
// result line; run.sh builds the driver inside the checkout and runs it so.
// See README.md for the workloads, metrics and baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/obs"
)

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "input seed (2 is held out for checking claims)")
	only := fs.String("workload", "", "run only this workload (default: all)")
	seconds := fs.Int("seconds", 0, "measure one workload for this long and print one JSON result line")
	trace := fs.String("trace", "", "full set: write spans of one extra traced sample per workload to this file; with -seconds: 0 or 1")
	out := fs.String("out", "", "write the full set's result JSON here")
	compare := fs.Bool("compare", false, "compare two result files: -compare OLD.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs OLD.json NEW.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	ws := workloads
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		ws = []*workload{w}
	}
	tmp, err := os.MkdirTemp("", "repro-bench-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	o := runOpts{seed: *seed, tmp: tmp}

	if *seconds > 0 {
		if *only == "" || (*trace != "0" && *trace != "1") {
			fmt.Fprintln(os.Stderr, "bench: -seconds needs exactly one -workload and -trace 0 or 1")
			return 2
		}
		return timedRun(ws[0], o, time.Duration(*seconds)*time.Second, *trace == "1")
	}
	return fullSet(ws, o, *out, *trace)
}

type runOpts struct {
	seed  int64
	smoke bool // smoke scale, for tests
	tmp   string
}

// workloadResult is one workload's measurement over a set of samples.
type workloadResult struct {
	Name      string              `json:"name"`
	Op        string              `json:"op"`
	Samples   int                 `json:"samples"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Errors    []string            `json:"errors,omitempty"`
	Metrics   map[string]*summary `json:"metrics"`
	Counts    map[string]float64  `json:"counts"`
	Digest    string              `json:"digest,omitempty"`
	Layers    map[string]float64  `json:"layers,omitempty"`
	Absent    []string            `json:"absent,omitempty"`

	obs, setup, rss, walls []float64
	first                  *sample
	spans                  []obs.WireSpan
}

func (wr *workloadResult) fail(err error) {
	wr.Failed++
	if len(wr.Errors) < 10 {
		wr.Errors = append(wr.Errors, err.Error())
	}
}

// take runs one sample and folds it in. Every sample must reproduce the
// first one's deterministic counts and decisions.
func (wr *workloadResult) take(w *workload, o runOpts, traced bool) *sample {
	wr.Samples++
	s, err := spawn(childSpec{Workload: w.name, Seed: o.seed, Smoke: o.smoke, Traced: traced}, o.tmp)
	if err != nil {
		wr.Attempted++
		wr.fail(err)
		return nil
	}
	wr.Attempted += s.Attempted
	wr.Failed += s.Failed
	for _, e := range s.Errors {
		if len(wr.Errors) < 10 {
			wr.Errors = append(wr.Errors, e)
		}
	}
	if wr.first == nil {
		wr.first = s
		wr.Counts, wr.Digest = s.Counts, s.Digest
	} else if d := differs(wr.first, s); d != "" {
		wr.fail(fmt.Errorf("sample %d: %s differs from sample 1", wr.Samples, d))
	}
	if !traced {
		wr.obs = append(wr.obs, s.Obs...)
		wr.setup = append(wr.setup, s.SetupS)
		wr.rss = append(wr.rss, s.PeakRSSMB)
		wr.walls = append(wr.walls, s.WallS)
	}
	return s
}

func differs(a, b *sample) string {
	if a.Digest != b.Digest {
		return "decision digest"
	}
	for k, v := range a.Counts {
		if b.Counts[k] != v {
			return k
		}
	}
	return ""
}

// measure takes untraced samples while more says so, then, if traced, one
// traced sample for the per-layer table.
func measure(w *workload, o runOpts, more func(n int, elapsed time.Duration) bool, traced bool) *workloadResult {
	wr := &workloadResult{Name: w.name, Op: w.op, Counts: map[string]float64{}}
	start := time.Now()
	for n := 0; n == 0 || more(n, time.Since(start)); n++ {
		wr.take(w, o, false)
	}
	wr.Metrics = map[string]*summary{}
	for _, m := range endToEnd {
		vals := map[string][]float64{"ops_per_s_p90": wr.obs, "setup_s": wr.setup, "peak_rss_mb": wr.rss}[m.name]
		wr.Metrics[m.name] = summarize(m, vals)
	}
	if traced {
		wr.Layers = map[string]float64{}
		if s := wr.take(w, o, true); s != nil {
			for k, v := range s.Layers {
				wr.Layers[k] = v
			}
			wr.spans = s.Spans
			if base := summarize(metric{}, wr.walls).Median; base > 0 {
				wr.Layers["trace_overhead"] = s.WallS/base - 1
			}
		}
		for _, m := range perLayer {
			if _, ok := wr.Layers[m.name]; !ok {
				wr.Absent = append(wr.Absent, m.name)
			}
		}
	}
	return wr
}

func (wr *workloadResult) correct() bool { return wr.Failed == 0 && wr.Attempted > 0 }

// timedRun measures one workload for a fixed time and prints the driver's
// result line last. A traced run spends half the time on untraced samples
// (the base of trace_overhead) before its traced sample.
func timedRun(w *workload, o runOpts, budget time.Duration, traced bool) int {
	if traced {
		budget /= 2
	}
	// Start another sample only if, at the mean pace so far, it ends in time.
	more := func(n int, elapsed time.Duration) bool { return elapsed+elapsed/time.Duration(n) < budget }
	wr := measure(w, o, more, traced)
	printWorkload(os.Stdout, wr)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if traced {
		for _, m := range perLayer {
			metrics[m.name] = value{wr.Layers[m.name], m.unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.name] = value{wr.Metrics[m.name].Value, m.unit}
		}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.correct(), wr.Attempted, wr.Failed, metrics})
	fmt.Println(string(line))
	if !wr.correct() {
		return 1
	}
	return 0
}

// result is a full set's result file.
type result struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

func fullSet(ws []*workload, o runOpts, out, traceFile string) int {
	res := result{Provenance: hostProvenance(o.seed)}
	reg := obs.NewRegistry()
	ok := true
	for i, w := range ws {
		wr := measure(w, o, func(k int, _ time.Duration) bool { return k < w.samples }, traceFile != "")
		res.Provenance.Samples[w.name] = w.samples
		res.Workloads = append(res.Workloads, wr)
		printWorkload(os.Stdout, wr)
		ok = ok && wr.correct()
		// Each workload's spans get their own block of trace lanes.
		lane := 100 * i
		reg.SetLaneName(lane, w.name)
		for k := 1; k <= exploreWorkers; k++ {
			reg.SetLaneName(lane+k, fmt.Sprintf("%s worker %d", w.name, k-1))
		}
		reg.ImportSpans(wr.spans, nil, lane, map[string]string{"workload": w.name})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err == nil {
			err = reg.WriteTrace(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness check failed")
		return 1
	}
	return 0
}

func printWorkload(f *os.File, wr *workloadResult) {
	fmt.Fprintf(f, "%s: %d samples, %d/%d failed (ops: %s)\n", wr.Name, wr.Samples, wr.Failed, wr.Attempted, wr.Op)
	for _, e := range wr.Errors {
		fmt.Fprintf(f, "  error: %s\n", e)
	}
	for _, m := range endToEnd {
		s := wr.Metrics[m.name]
		fmt.Fprintf(f, "  %-13s %12.6g %-4s  median %.6g  p25 %.6g  p75 %.6g  n %d", m.name, s.Value, m.unit, s.Median, s.P25, s.P75, s.N)
		if s.TailPct > 0 {
			fmt.Fprintf(f, "  p%g %.6g", s.TailPct, s.Tail)
		}
		fmt.Fprintln(f)
	}
	keys := make([]string, 0, len(wr.Counts))
	for k := range wr.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  count %-24s %g\n", k, wr.Counts[k])
	}
	for _, m := range perLayer {
		if v, ok := wr.Layers[m.name]; ok {
			fmt.Fprintf(f, "  layer %-26s %.6g %s\n", m.name, v, m.unit)
		}
	}
	if len(wr.Absent) > 0 {
		fmt.Fprintf(f, "  absent: %s\n", strings.Join(wr.Absent, " "))
	}
}
