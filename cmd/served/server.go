package main

// The exploration service: a bounded job queue running core.Pipeline
// evaluations against the shared artifact store, behind three JSON
// endpoints (submit/status/result), the blob tree remote explorers
// mount as their -store, a health probe and the obs debug surface.
// docs/SERVICE.md is the contract and internal/service holds its wire
// types; server_test.go pins the queue and drain semantics.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/ on DefaultServeMux; exposed only with -pprof
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// job is one queued or completed evaluation.
type job struct {
	id    string
	req   service.JobRequest
	src   string           // resolved ISDL source
	trace obs.TraceContext // client's trace context, if the submit carried one
	wait  *obs.Span        // queue-wait span, started at submit, ended when run begins

	mu        sync.Mutex
	status    service.Status
	errMsg    string
	eval      *core.Evaluation
	cached    bool
	roots     []uint64 // span IDs whose subtrees belong to this job
	submitted time.Time
}

func (j *job) set(st service.Status, errMsg string) {
	j.mu.Lock()
	j.status, j.errMsg = st, errMsg
	j.mu.Unlock()
}

// wire returns the job's state document, with the evaluation when
// withEval is set.
func (j *job) wire(withEval bool) service.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := service.JobStatus{ID: j.id, Status: j.status, Error: j.errMsg,
		Cached: j.cached, Retryable: j.status == service.StatusRetry}
	if withEval {
		out.Eval = j.eval
	}
	return out
}

// Trace lanes: jobs and their pipeline stages run on lane 0, queue-wait
// spans on lane 1, server-side blob transfers on blob.HandlerObs's own
// lane. Exported lane names make the merged trace self-describing.
const (
	laneJobs  = 0
	laneQueue = 1
)

// serverConfig sizes a server's queue and says whether it exposes
// profiling.
type serverConfig struct {
	workers  int
	queueCap int
	pprof    bool // mount net/http/pprof under /debug/pprof/
}

// server owns the queue, the workers, the shared store and the pipeline.
type server struct {
	reg     *obs.Registry
	cache   *core.StageCache
	pipe    *core.Pipeline
	sampler *obs.Sampler

	// evalFn runs one job's evaluation under the given parent span;
	// tests stub it. The bool is the served-from-cache verdict.
	evalFn func(*job, *obs.Span) (*core.Evaluation, bool, error)

	workers int
	queue   chan *job
	qmu     sync.RWMutex // guards draining + queue close against submits
	drainng bool
	closed  bool
	wg      sync.WaitGroup

	jobs   sync.Map // id -> *job
	nextID atomic.Uint64
	mux    *http.ServeMux
}

// newServer wires a server over a store per cfg.
func newServer(st blob.Store, reg *obs.Registry, cfg serverConfig) (*server, error) {
	if cfg.workers <= 0 || cfg.queueCap <= 0 {
		return nil, fmt.Errorf("served: workers (%d) and queue capacity (%d) must be positive", cfg.workers, cfg.queueCap)
	}
	cache := core.NewStageCache()
	cache.Bind(reg)
	cache.SetStore(st)
	reg.SetLaneName(laneJobs, "jobs")
	reg.SetLaneName(laneQueue, "queue")
	sampler := obs.NewSampler(reg)
	s := &server{
		reg:     reg,
		cache:   cache,
		pipe:    &core.Pipeline{Cache: cache, Obs: reg},
		sampler: sampler,
		workers: cfg.workers,
		queue:   make(chan *job, cfg.queueCap),
		mux:     obs.Handler(reg, sampler), // the debug surface; job, blob and health routes join it
	}
	s.evalFn = s.evaluate
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.Handle("/v1/blobs/", blob.HandlerObs(st, reg))
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.pprof {
		// The net/http/pprof import registers on DefaultServeMux;
		// exposing it is opt-in.
		s.mux.Handle("/debug/pprof/", http.DefaultServeMux)
	}
	return s, nil
}

// start launches the evaluation workers and the dashboard sampler.
func (s *server) start() {
	s.sampler.Start()
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

func (s *server) handler() http.Handler { return s.mux }

// beginDrain stops accepting work: new submits get a retryable 503 while
// status/result/blob reads keep serving. Call closeAndWait afterwards.
func (s *server) beginDrain() {
	s.qmu.Lock()
	s.drainng = true
	s.qmu.Unlock()
}

// closeAndWait closes the queue and waits for the workers: in-flight
// evaluations drain to completion, still-queued jobs are marked retry.
// The dashboard sampler stops with them.
func (s *server) closeAndWait() {
	s.qmu.Lock()
	if !s.closed {
		s.drainng = true // closing implies draining; guard the submit path
		s.closed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	s.wg.Wait()
	s.sampler.Stop()
}

func (s *server) isDraining() bool {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	return s.drainng
}

func (s *server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.reg.Gauge("served.queue.depth").Set(int64(len(s.queue)))
		if s.isDraining() {
			// Queued but never started: reject retryably rather than
			// stretch the shutdown by a whole evaluation.
			j.wait.SetArg("outcome", "drained")
			j.wait.End()
			j.set(service.StatusRetry, "server draining; resubmit")
			s.reg.Counter("served.jobs.retried").Inc()
			continue
		}
		s.run(j)
	}
}

// run executes one job under a span, with the wait and run times in
// histograms and the outcome in counters. The queue-wait span ends here
// (its duration IS the queue time); the job span parents the pipeline's
// stage spans, and both subtrees are remembered on the job so the result
// endpoint can ship them back to a tracing client.
func (s *server) run(j *job) {
	j.wait.End()
	sp := s.reg.StartSpanLane("job", laneJobs)
	sp.SetArg("id", j.id)
	if j.trace.Valid() {
		sp.SetArg("client", j.trace.String())
	}
	j.mu.Lock()
	j.roots = []uint64{j.wait.ID(), sp.ID()}
	j.mu.Unlock()
	s.reg.Histogram("served.job.wait.ns").Observe(time.Since(j.submitted))
	s.reg.Gauge("served.jobs.running").Add(1)
	j.set(service.StatusRunning, "")
	start := time.Now()
	eval, cached, err := s.evalFn(j, sp)
	s.reg.Histogram("served.job.run.ns").Observe(time.Since(start))
	s.reg.Gauge("served.jobs.running").Add(-1)
	if err != nil {
		j.set(service.StatusFailed, err.Error())
		s.reg.Counter("served.jobs.failed").Inc()
		sp.SetArg("err", err.Error())
	} else {
		j.mu.Lock()
		j.status, j.eval, j.cached = service.StatusDone, eval, cached
		j.mu.Unlock()
		s.reg.Counter("served.jobs.done").Inc()
		if cached {
			sp.SetArg("cache", "hit")
		}
	}
	sp.End()
}

// evaluate runs the staged pipeline for one job. The cached verdict
// compares per-stage miss counts around the evaluation: zero new misses
// outside Parse means every artifact was served from cache or store.
// (Exact with one worker; best-effort under concurrent jobs, whose
// misses can bleed into each other's windows.)
func (s *server) evaluate(j *job, sp *obs.Span) (*core.Evaluation, bool, error) {
	workload := j.req.Workload
	if workload == "" {
		workload = "kernel"
	}
	before := s.cache.PerStage()
	eval, err := s.pipe.EvaluateKernelTraced(j.src, j.req.Kernel, workload, sp)
	after := s.cache.PerStage()
	cached := true
	for st := core.Stage(0); st < core.NumStages; st++ {
		if st != core.StageParse && after[st].Misses != before[st].Misses {
			cached = false
		}
	}
	return eval, cached, err
}

// maxRequestBytes bounds one submission body (descriptions and kernels
// are text; a megabyte is generous).
const maxRequestBytes = 1 << 20

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req service.JobRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		writeJSON(w, http.StatusRequestEntityTooLarge, service.JobStatus{Status: service.StatusFailed, Error: err.Error()})
		return
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, service.JobStatus{Status: service.StatusFailed, Error: "bad request: " + err.Error()})
		return
	}
	src, err := resolveSource(req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, service.JobStatus{Status: service.StatusFailed, Error: err.Error()})
		return
	}
	j := &job{
		id:        fmt.Sprintf("j%d", s.nextID.Add(1)),
		req:       req,
		src:       src,
		status:    service.StatusQueued,
		submitted: time.Now(),
	}
	j.trace, _ = obs.ExtractTrace(r.Header)
	// The queue-wait span starts now and ends when a worker picks the
	// job up (or the drain rejects it). Rejected submits below never End
	// it, so it is never recorded.
	j.wait = s.reg.StartSpanLane("queue-wait", laneQueue)
	j.wait.SetArg("id", j.id)
	if j.trace.Valid() {
		j.wait.SetArg("client", j.trace.String())
	}
	s.jobs.Store(j.id, j)

	s.qmu.RLock()
	if s.drainng {
		s.qmu.RUnlock()
		s.jobs.Delete(j.id)
		s.reg.Counter("served.jobs.rejected").Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, service.JobStatus{Status: service.StatusRetry, Retryable: true, Error: "server draining; resubmit"})
		return
	}
	select {
	case s.queue <- j:
		s.qmu.RUnlock()
		s.reg.Counter("served.jobs.submitted").Inc()
		s.reg.Gauge("served.queue.depth").Set(int64(len(s.queue)))
		writeJSON(w, http.StatusAccepted, service.JobStatus{ID: j.id, Status: service.StatusQueued})
	default:
		s.qmu.RUnlock()
		s.jobs.Delete(j.id)
		s.reg.Counter("served.jobs.rejected").Inc()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, service.JobStatus{Status: service.StatusRetry, Retryable: true, Error: "job queue full; resubmit"})
	}
}

// resolveSource turns a request into ISDL text: exactly one of machine
// (builtin name) or isdl (raw source), plus a non-empty kernel.
func resolveSource(req service.JobRequest) (string, error) {
	if req.Kernel == "" {
		return "", errors.New("kernel is required")
	}
	switch {
	case req.Machine != "" && req.ISDL != "":
		return "", errors.New("give machine or isdl, not both")
	case req.Machine != "":
		src, ok := repro.Machines()[req.Machine]
		if !ok {
			return "", fmt.Errorf("unknown machine %q", req.Machine)
		}
		return src, nil
	case req.ISDL != "":
		return req.ISDL, nil
	}
	return "", errors.New("machine or isdl is required")
}

func (s *server) job(w http.ResponseWriter, r *http.Request) (*job, bool) {
	v, ok := s.jobs.Load(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, service.JobStatus{Status: service.StatusFailed, Error: "unknown job " + r.PathValue("id")})
		return nil, false
	}
	return v.(*job), true
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.wire(false))
}

func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	out := j.wire(true)
	switch out.Status {
	case service.StatusDone:
		j.mu.Lock()
		roots := append([]uint64(nil), j.roots...)
		j.mu.Unlock()
		if spans := s.reg.ExportSubtrees(roots...); len(spans) > 0 {
			out.TraceID = fmt.Sprintf("%016x", s.reg.TraceID())
			out.Spans = spans
		}
		writeJSON(w, http.StatusOK, out)
	case service.StatusRetry:
		out.Eval = nil
		writeJSON(w, http.StatusServiceUnavailable, out)
	default:
		// Not finished (or failed): the status document says which; 409
		// tells pollers to keep waiting or give up, not to parse an
		// evaluation.
		out.Eval = nil
		writeJSON(w, http.StatusConflict, out)
	}
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
