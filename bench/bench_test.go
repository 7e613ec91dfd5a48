package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"
)

// TestMain lets spawn re-execute the test binary as a sample process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec))
	}
	os.Exit(m.Run())
}

// TestWorkloadsSmoke runs every workload at smoke scale in this process
// with its correctness checks on.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			s, err := runSample(childSpec{Workload: w.name, Seed: 1, Smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			if s.Attempted == 0 || s.Failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", s.Attempted, s.Failed, s.Errors)
			}
			if len(s.Obs) == 0 {
				t.Fatal("no observations")
			}
			for _, v := range s.Obs {
				if !(v > 0) {
					t.Fatalf("observation %v", s.Obs)
				}
			}
		})
	}
}

// TestCorruptedReferenceFails: a wrong reference value makes every ILS
// run's check fail, and each counts as failed.
func TestCorruptedReferenceFails(t *testing.T) {
	r, err := setupILS(config{seed: 1, smoke: true})
	if err != nil {
		t.Fatal(err)
	}
	r.(*ilsRun).ref[0]++
	s := r.run()
	if s.Attempted == 0 || s.Failed != s.Attempted {
		t.Fatalf("attempted %d, failed %d; want every run failed", s.Attempted, s.Failed)
	}
}

// TestTracedSampleProcess drives the parent/child path: a traced sample in
// a fresh process reports set-up time, deterministic counts and the
// per-layer table, with absent figures listed rather than failed.
func TestTracedSampleProcess(t *testing.T) {
	w, err := workloadByName("zoo-sweep")
	if err != nil {
		t.Fatal(err)
	}
	wr := measure(w, runOpts{seed: 1, smoke: true, tmp: t.TempDir()}, func(int, time.Duration) bool { return false }, true)
	if !wr.correct() || wr.Samples != 2 {
		t.Fatalf("samples %d, failed %d/%d: %v", wr.Samples, wr.Failed, wr.Attempted, wr.Errors)
	}
	if s := wr.Metrics["setup_s"]; s.N != 1 || !(s.Median > 0) {
		t.Fatalf("setup_s %+v", s)
	}
	if wr.Counts["suite.verified"] == 0 {
		t.Fatalf("counts %v", wr.Counts)
	}
	for _, name := range []string{"hgen.share_s", "suite.prepare_n", "xsim.run_s", "trace_overhead"} {
		if _, ok := wr.Layers[name]; !ok {
			t.Errorf("layer %s missing", name)
		}
	}
	if len(wr.Absent) == 0 || len(wr.spans) == 0 {
		t.Errorf("absent %v, %d spans", wr.Absent, len(wr.spans))
	}
}

func TestVerdict(t *testing.T) {
	ops := endToEnd[0]
	sum := func(vals ...float64) *summary { return summarize(ops, vals) }
	cases := []struct {
		name     string
		old, new *summary
		want     string
	}{
		{"worse beyond the bound", sum(100, 101, 102, 103), sum(70, 71, 72, 73), "worse"},
		{"within the bound", sum(100, 101, 102, 103), sum(96, 97, 98, 99), "unchanged"},
		{"better beyond the bound", sum(100, 101, 102, 103), sum(130, 131, 132, 133), "better"},
		{"unresolved on wide spread", sum(60, 90, 110, 140), sum(70, 85, 100, 130), "unresolved"},
		{"better on clean separation", sum(60, 70, 80, 90), sum(95, 110, 130, 150), "better"},
	}
	for _, c := range cases {
		if got, _ := verdict(ops, c.old, c.new); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
	// setup_s below its absolute floor is unchanged whatever the share.
	setup := endToEnd[1]
	if got, _ := verdict(setup, summarize(setup, []float64{0.003, 0.003, 0.003}), summarize(setup, []float64{0.006, 0.006, 0.006})); got != "unchanged" {
		t.Errorf("setup_s under the floor: %s", got)
	}
}

// TestQuantile pins the quartiles to Python's statistics.quantiles(n=4).
func TestQuantile(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got := []float64{quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)}
	if want := []float64{2.75, 5.5, 8.25}; !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	if s := summarize(endToEnd[0], make([]float64, 20)); s.TailPct != 50 {
		t.Fatalf("20 values: tail p%v, want the p50 low tail", s.TailPct)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the driver's tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Why    string  `json:"why,omitempty"`
		Unit   string  `json:"unit,omitempty"`
		Better string  `json:"better,omitempty"`
		Bound  float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ws, e2e, layers []entry
	for _, w := range workloads {
		ws = append(ws, entry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		e2e = append(e2e, entry{Name: m.name, Unit: m.unit, Better: m.better, Bound: m.bound})
	}
	for _, m := range perLayer {
		layers = append(layers, entry{Name: m.name, Unit: m.unit, Better: m.better})
	}
	for _, c := range []struct {
		what      string
		got, want []entry
	}{{"workloads", doc.Workloads, ws}, {"end_to_end", doc.EndToEnd, e2e}, {"per_layer", doc.PerLayer, layers}} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s:\n got %+v\nwant %+v", c.what, c.got, c.want)
		}
	}
}
