package main

// Behavioral tests for the service: the submit→status→result lifecycle
// against the real pipeline (with a cached second submit), queue
// bounding, drain semantics, the mounted blob tree, and request
// validation. Evaluation-free tests stub evalFn so queue mechanics are
// exercised without paying for synthesis.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

const testKernel = "var x, y;\nx = 2;\ny = x + 3;\n"

func newTestServer(t *testing.T, workers, queueCap int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(blob.NewMem(), obs.NewRegistry(), serverConfig{workers: workers, queueCap: queueCap})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, url string, req service.JobRequest) (int, service.JobStatus) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	return resp.StatusCode, out
}

func getStatus(t *testing.T, url, id string) service.JobStatus {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, url, id string) service.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, url, id)
		switch st.Status {
		case service.StatusDone, service.StatusFailed, service.StatusRetry:
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return service.JobStatus{}
}

// TestSubmitStatusResult runs the whole lifecycle against the real
// pipeline, then resubmits the identical job and requires it served
// entirely from the shared store (the acceptance criterion's in-process
// form; the CI service job repeats it across two daemon processes).
func TestSubmitStatusResult(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	s.start()
	defer s.closeAndWait()

	code, sub := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code != http.StatusAccepted || sub.ID == "" {
		t.Fatalf("submit = %d %+v, want 202 with id", code, sub)
	}
	st := waitDone(t, ts.URL, sub.ID)
	if st.Status != service.StatusDone {
		t.Fatalf("job ended %q (%s), want done", st.Status, st.Error)
	}
	if st.Cached {
		t.Error("first evaluation on an empty store claims cached")
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || res.Eval == nil {
		t.Fatalf("result = %d eval=%v, want 200 with evaluation", resp.StatusCode, res.Eval)
	}
	if res.Eval.Cycles == 0 {
		t.Error("evaluation reports zero cycles")
	}

	// Identical resubmission: the combine artifact answers from the store.
	_, sub2 := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	st2 := waitDone(t, ts.URL, sub2.ID)
	if st2.Status != service.StatusDone {
		t.Fatalf("second job ended %q (%s)", st2.Status, st2.Error)
	}
	if !st2.Cached {
		t.Error("identical second submit was not served from cache")
	}
}

func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	cases := []service.JobRequest{
		{},                                       // nothing
		{Machine: "toy"},                         // no kernel
		{Kernel: testKernel},                     // no description
		{Machine: "no-such", Kernel: testKernel}, // unknown builtin
		{Machine: "toy", ISDL: "machine x {}", Kernel: testKernel}, // both
	}
	for i, req := range cases {
		if code, _ := postJob(t, ts.URL, req); code != http.StatusBadRequest {
			t.Errorf("case %d: submit = %d, want 400", i, code)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// blockingEval parks every evaluation until release is closed, so tests
// control exactly which jobs are in flight.
func blockingEval(release <-chan struct{}) (func(*job, *obs.Span) (*core.Evaluation, bool, error), *sync.WaitGroup) {
	var started sync.WaitGroup
	started.Add(1)
	var once sync.Once
	return func(j *job, _ *obs.Span) (*core.Evaluation, bool, error) {
		once.Do(started.Done)
		<-release
		return &core.Evaluation{}, false, nil
	}, &started
}

// TestQueueFullRejected: with one worker parked and the one queue slot
// taken, a third submit gets a retryable 503 and no job record.
func TestQueueFullRejected(t *testing.T) {
	s, ts := newTestServer(t, 1, 1)
	release := make(chan struct{})
	fn, started := blockingEval(release)
	s.evalFn = fn
	s.start()
	defer func() { close(release); s.closeAndWait() }()

	code1, _ := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	started.Wait() // worker holds job 1
	code2, _ := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	code3, rej := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code1 != http.StatusAccepted || code2 != http.StatusAccepted {
		t.Fatalf("first two submits = %d, %d, want 202", code1, code2)
	}
	if code3 != http.StatusServiceUnavailable || !rej.Retryable {
		t.Fatalf("overflow submit = %d %+v, want retryable 503", code3, rej)
	}
	if rej.ID != "" {
		t.Errorf("rejected submit carries a job id %q", rej.ID)
	}
}

// TestGracefulDrain pins the shutdown contract: after beginDrain, new
// submits are rejected retryably, the in-flight job runs to completion,
// and the queued-but-unstarted job flips to "retry" instead of running.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, 1, 4)
	release := make(chan struct{})
	fn, started := blockingEval(release)
	s.evalFn = fn
	s.start()

	_, inflight := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	started.Wait() // worker is inside job 1
	_, queued := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})

	s.beginDrain()
	code, rej := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	if code != http.StatusServiceUnavailable || !rej.Retryable {
		t.Fatalf("submit while draining = %d %+v, want retryable 503", code, rej)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: %v %v, want 503", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	close(release) // let the in-flight job finish
	s.closeAndWait()

	if st := getStatus(t, ts.URL, inflight.ID); st.Status != service.StatusDone {
		t.Errorf("in-flight job drained to %q, want done", st.Status)
	}
	st := getStatus(t, ts.URL, queued.ID)
	if st.Status != service.StatusRetry || !st.Retryable {
		t.Errorf("queued job drained to %+v, want retryable retry", st)
	}
	// Its result endpoint must also say retry, not serve an evaluation.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + queued.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("retry job result = %d, want 503", resp.StatusCode)
	}
}

// TestBlobTreeMounted: the daemon serves its store at /v1/blobs/, so an
// explorer pointed at http://HOST shares artifacts through this process.
func TestBlobTreeMounted(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	remote, err := blob.Open(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	key := blob.KeyOf("served", "mount")
	if err := remote.Put("t.ns", key, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got, err := remote.Get("t.ns", key)
	if err != nil || string(got) != "payload" {
		t.Fatalf("round trip through daemon = %q, %v", got, err)
	}
}

// TestMetricsEndpoint: counters move and export as JSON.
func TestMetricsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, 1, 8)
	s.evalFn = func(*job, *obs.Span) (*core.Evaluation, bool, error) { return &core.Evaluation{}, false, nil }
	s.start()
	defer s.closeAndWait()
	_, sub := postJob(t, ts.URL, service.JobRequest{Machine: "toy", Kernel: testKernel})
	waitDone(t, ts.URL, sub.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var doc struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, raw)
	}
	for _, c := range []string{"served.jobs.submitted", "served.jobs.done"} {
		if doc.Counters[c] == 0 {
			t.Errorf("counter %s = 0 after a completed job\n%s", c, raw)
		}
	}
}

// TestOversizeSubmitRejected guards the request body bound.
func TestOversizeSubmitRejected(t *testing.T) {
	_, ts := newTestServer(t, 1, 1)
	huge := service.JobRequest{ISDL: strings.Repeat("x", maxRequestBytes+1), Kernel: testKernel}
	body, _ := json.Marshal(huge)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize submit = %d, want 413", resp.StatusCode)
	}
}
