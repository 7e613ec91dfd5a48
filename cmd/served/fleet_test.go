package main

// Fleet-telemetry tests: the cross-process trace round trip (client
// submit span -> daemon queue-wait + job + pipeline stages -> merged
// client trace), the Prometheus exposition endpoint, the dashboard, and
// the flight recorder.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// TestEndToEndMergedTrace submits a real evaluation through the jobs
// client with tracing on and asserts the daemon's queue-wait and
// per-stage spans come back as descendants of the client's submit span.
// The test server starts with a fresh store, so the pipeline stages
// genuinely execute (a warm combine cache would short-circuit them and
// the job would produce no stage spans).
func TestEndToEndMergedTrace(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	s.start()
	defer s.closeAndWait()

	clientReg := obs.NewRegistry()
	client := service.NewClient(ts.URL)
	root := clientReg.StartSpan("explore.remote")
	st, err := client.EvaluateTraced(context.Background(),
		service.JobRequest{Machine: "toy", Kernel: testKernel}, clientReg, root, 5*time.Millisecond)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != "done" || st.Eval == nil {
		t.Fatalf("remote evaluation = %+v, want done with an evaluation", st)
	}
	if st.TraceID == "" || len(st.Spans) == 0 {
		t.Fatalf("result carried trace_id=%q and %d spans; want both", st.TraceID, len(st.Spans))
	}

	spans := clientReg.Spans()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	submit, ok := byName["submit"]
	if !ok {
		t.Fatal("no submit span in the client trace")
	}
	if submit.Parent != byName["explore.remote"].ID {
		t.Errorf("submit parent = %d, want explore.remote %d", submit.Parent, byName["explore.remote"].ID)
	}
	wait, ok := byName["queue-wait"]
	if !ok {
		t.Fatal("daemon queue-wait span missing from the merged client trace")
	}
	if wait.Parent != submit.ID {
		t.Errorf("queue-wait parent = %d, want submit %d", wait.Parent, submit.ID)
	}
	jobSpan, ok := byName["job"]
	if !ok {
		t.Fatal("daemon job span missing from the merged client trace")
	}
	if jobSpan.Parent != submit.ID {
		t.Errorf("job parent = %d, want submit %d", jobSpan.Parent, submit.ID)
	}
	stages := 0
	for _, name := range []string{"parse", "compile", "assemble", "simulate", "synthesize", "combine"} {
		if sp, ok := byName[name]; ok {
			stages++
			if sp.Parent != jobSpan.ID {
				t.Errorf("stage %s parent = %d, want job %d", name, sp.Parent, jobSpan.ID)
			}
			if sp.Lane < service.RemoteLaneBase {
				t.Errorf("stage %s lane = %d, want >= %d (imported lanes shifted)", name, sp.Lane, service.RemoteLaneBase)
			}
		}
	}
	if stages == 0 {
		t.Error("no pipeline stage spans merged into the client trace")
	}
	if wait.Args["daemon"] == "" || wait.Args["remote_trace"] == "" {
		t.Errorf("imported span args = %v, want daemon and remote_trace tags", wait.Args)
	}
	// The daemon kept its own spans under its own trace identity.
	if s.reg.TraceID() == clientReg.TraceID() {
		t.Error("daemon and client share a trace ID; propagation should not overwrite identities")
	}
}

// TestSubmitWithoutTraceStillWorks pins that untraced submits (no
// X-Repro-Trace header) flow exactly as before and still return spans
// in the result (the client just won't merge them anywhere).
func TestSubmitWithoutTraceStillWorks(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	s.start()
	defer s.closeAndWait()

	code, st := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", code)
	}
	final := waitDone(t, ts.URL, st.ID)
	if final.Status != service.StatusDone {
		t.Fatalf("job = %+v, want done", final)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID == "" || len(out.Spans) == 0 {
		t.Errorf("untraced job result has trace_id=%q, %d spans; want daemon spans regardless", out.TraceID, len(out.Spans))
	}
}

func TestMetricsPromEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	s.start()
	defer s.closeAndWait()
	code, _ := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q, want text/plain exposition", ct)
	}
	if err := obs.CheckExposition(data); err != nil {
		t.Errorf("/metrics?format=prom is not valid exposition: %v\n%s", err, data)
	}
	if !strings.Contains(string(data), "# TYPE served_jobs_submitted_total counter") {
		t.Errorf("exposition missing the submit counter:\n%s", data)
	}

	// Unknown format is a 400, JSON stays the default.
	resp2, err := http.Get(ts.URL + "/metrics?format=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("format=nope = %d, want 400", resp2.StatusCode)
	}
	resp3, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp3.Body).Decode(&doc); err != nil {
		t.Errorf("default /metrics is not JSON: %v", err)
	}
}

func TestDashAndFlightEndpoints(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	s.start()
	defer s.closeAndWait()
	code, st := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}
	waitDone(t, ts.URL, st.ID)
	s.sampler.SampleNow()

	resp, err := http.Get(ts.URL + "/dash")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "<!doctype html>") {
		t.Errorf("GET /dash: %d, %.60q", resp.StatusCode, body)
	}

	resp, err = http.Get(ts.URL + "/dash/data")
	if err != nil {
		t.Fatal(err)
	}
	var doc obs.DashDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /dash/data: %v", err)
	}
	if len(doc.Series) == 0 {
		t.Error("dash data has no series after a completed job")
	}

	resp, err = http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Capacity int            `json:"capacity"`
		Total    uint64         `json:"total"`
		Spans    []obs.WireSpan `json:"spans"`
	}
	err = json.NewDecoder(resp.Body).Decode(&flight)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET /debug/flight: %v", err)
	}
	if flight.Capacity != 256 || flight.Total == 0 || len(flight.Spans) == 0 {
		t.Errorf("flight dump after a completed job: %+v, want capacity 256 and spans", flight)
	}
}
