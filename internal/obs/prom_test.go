package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func promOutput(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWritePromShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("served.jobs.submitted").Add(3)
	r.Gauge("served.queue.depth").Set(2)
	r.Histogram("stage.compile.ns").Observe(3 * time.Microsecond)
	out := promOutput(t, r)

	for _, want := range []string{
		"# TYPE served_jobs_submitted_total counter",
		"served_jobs_submitted_total 3",
		"# TYPE served_queue_depth gauge",
		"served_queue_depth 2",
		"# TYPE stage_compile_ns histogram",
		`stage_compile_ns_bucket{le="+Inf"} 1`,
		"stage_compile_ns_sum 3000",
		"stage_compile_ns_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Errorf("own exposition fails CheckExposition: %v", err)
	}
}

func TestWritePromCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat.ns")
	h.ObserveNs(3)   // bucket [2,4)
	h.ObserveNs(3)   // same bucket
	h.ObserveNs(100) // bucket [64,128)
	out := promOutput(t, r)
	// The cumulative count at the top bucket's bound equals the total.
	if !strings.Contains(out, `lat_ns_bucket{le="128"} 3`) {
		t.Errorf("want cumulative top bucket le=128 -> 3:\n%s", out)
	}
	if !strings.Contains(out, `lat_ns_bucket{le="4"} 2`) {
		t.Errorf("want le=4 -> 2:\n%s", out)
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Errorf("CheckExposition: %v", err)
	}
}

// TestZeroCountHistogramAllExporters: a histogram that was created but
// never observed must render in all four exporters without a division
// by zero or a NaN.
func TestZeroCountHistogramAllExporters(t *testing.T) {
	r := NewRegistry()
	r.Histogram("never.observed.ns") // count 0
	sp := r.StartSpan("tick")
	sp.End()

	var text, metrics, trace, prom bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Errorf("WriteText: %v", err)
	}
	if err := r.WriteMetricsJSON(&metrics); err != nil {
		t.Errorf("WriteMetricsJSON: %v", err)
	}
	if err := r.WriteTrace(&trace); err != nil {
		t.Errorf("WriteTrace: %v", err)
	}
	if err := r.WriteProm(&prom); err != nil {
		t.Errorf("WriteProm: %v", err)
	}
	for name, out := range map[string]string{
		"text": text.String(), "metrics": metrics.String(),
		"trace": trace.String(), "prom": prom.String(),
	} {
		if strings.Contains(out, "NaN") || strings.Contains(out, "Inf\"") && name == "metrics" {
			t.Errorf("%s exporter rendered NaN/Inf for a zero-count histogram:\n%s", name, out)
		}
	}
	if !json.Valid(metrics.Bytes()) {
		t.Error("metrics JSON invalid for zero-count histogram")
	}
	if !json.Valid(trace.Bytes()) {
		t.Error("trace JSON invalid for zero-count histogram")
	}
	out := prom.String()
	for _, want := range []string{
		`never_observed_ns_bucket{le="+Inf"} 0`,
		"never_observed_ns_sum 0",
		"never_observed_ns_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom exposition missing %q for zero-count histogram:\n%s", want, out)
		}
	}
	if err := CheckExposition(prom.Bytes()); err != nil {
		t.Errorf("CheckExposition on zero-count exposition: %v", err)
	}
}

// TestSingleObservationProm: with one observation the _sum equals the
// observation and every bucket at or past it counts 1 (the quantile
// clamp is pinned by TestHistogramSingleObservation).
func TestSingleObservationProm(t *testing.T) {
	r := NewRegistry()
	r.Histogram("one.ns").ObserveNs(5)
	out := promOutput(t, r)
	if !strings.Contains(out, "one_ns_sum 5") || !strings.Contains(out, "one_ns_count 1") {
		t.Errorf("single observation exposition wrong:\n%s", out)
	}
	if err := CheckExposition([]byte(out)); err != nil {
		t.Errorf("CheckExposition: %v", err)
	}
}

func TestWritePromNilRegistry(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("nil registry WriteProm: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("nil registry wrote %q", buf.String())
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"stage.compile.ns": "stage_compile_ns",
		"cache.store.hits": "cache_store_hits",
		"9lives":           "_9lives",
		"ok_name:x":        "ok_name:x",
		"spaces and-dash":  "spaces_and_dash",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	bad := map[string]string{
		"no TYPE":            "some_metric 1\n",
		"counter sans total": "# TYPE hits counter\nhits 1\n",
		"bad name":           "# TYPE bad-name gauge\nbad-name 1\n",
		"bad value":          "# TYPE g gauge\ng one\n",
		"non-cumulative": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"stray comment": "# NOTE whatever\n",
	}
	for name, doc := range bad {
		if err := CheckExposition([]byte(doc)); err == nil {
			t.Errorf("CheckExposition accepted %s:\n%s", name, doc)
		}
	}
	good := "# HELP g a gauge\n# TYPE g gauge\ng 1\n\n# TYPE h histogram\n" +
		"h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n"
	if err := CheckExposition([]byte(good)); err != nil {
		t.Errorf("CheckExposition rejected valid exposition: %v", err)
	}
}
