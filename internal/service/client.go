// Package service is the Go client for cmd/served's job API: submit an
// evaluation, poll it, fetch the result — and, when the caller traces,
// carry its obs.TraceContext to the daemon and merge the daemon-side
// spans back, so one Chrome trace shows the whole client → queue →
// pipeline-stage → store timeline. docs/SERVICE.md is the wire
// contract; cmd/served encodes and decodes the types defined here.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// JobRequest is one evaluation submission: a builtin machine name or
// raw ISDL source (exactly one), plus the kernel to compile, assemble,
// simulate and synthesize it against.
type JobRequest struct {
	Machine  string `json:"machine,omitempty"` // zoo machine name (machines.ZooNames)
	ISDL     string `json:"isdl,omitempty"`    // raw description source
	Kernel   string `json:"kernel"`
	Workload string `json:"workload,omitempty"` // label in reports; default "kernel"
}

// Status is a job's lifecycle state. StatusRetry is terminal but
// retryable: the job was rejected before running (queue drained at
// shutdown) and an identical resubmission is safe and cheap — whatever
// partial work happened is in the shared store.
type Status string

const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
	StatusRetry   Status = "retry"
)

// JobStatus is the daemon's job-state document: the status and result
// endpoints' answer, and a submit rejection's (which carries no ID).
type JobStatus struct {
	ID        string           `json:"id,omitempty"`
	Status    Status           `json:"status"`
	Error     string           `json:"error,omitempty"`
	Cached    bool             `json:"cached,omitempty"`
	Retryable bool             `json:"retryable,omitempty"`
	Eval      *core.Evaluation `json:"evaluation,omitempty"`
	// TraceID is the daemon registry's trace identity and Spans the
	// job's daemon-side span subtrees (queue wait, the job, its pipeline
	// stages) in wire form. They ride along with a done result so the
	// client can merge them under its own submit span (obs.ImportSpans).
	TraceID string         `json:"trace_id,omitempty"`
	Spans   []obs.WireSpan `json:"spans,omitempty"`
}

// ErrRetryable marks a submission the daemon rejected retryably (queue
// full, or draining for shutdown): resubmitting the identical request
// later is safe and cheap.
var ErrRetryable = errors.New("service: retryable rejection")

// ErrNotDone marks a result fetched before the job finished.
var ErrNotDone = errors.New("service: job not done")

// RemoteLaneBase is the lane offset imported daemon spans are shifted
// by, keeping them visually separate from local work in the merged
// trace. Clients that import spans label it via obs.Registry.SetLaneName.
const RemoteLaneBase = 10

// Client talks to one daemon. Safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for the daemon at base
// (e.g. "http://build-host:8344"). A trailing slash is tolerated.
func NewClient(base string) *Client {
	return &Client{
		base: strings.TrimSuffix(base, "/"),
		hc:   &http.Client{Timeout: 5 * time.Minute},
	}
}

func (c *Client) do(ctx context.Context, method, path string, body []byte, tc obs.TraceContext) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return 0, nil, fmt.Errorf("service: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tc.Inject(req.Header)
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("service: %s %s: %w", method, path, err)
	}
	return resp.StatusCode, data, nil
}

// Submit enqueues an evaluation, carrying tc to the daemon when it is
// valid. On a retryable rejection the returned error wraps ErrRetryable
// and the status carries the daemon's message.
func (c *Client) Submit(ctx context.Context, req JobRequest, tc obs.TraceContext) (JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, fmt.Errorf("service: encode request: %w", err)
	}
	code, data, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, tc)
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("service: submit: bad response (HTTP %d): %w", code, err)
	}
	switch {
	case code == http.StatusAccepted:
		return st, nil
	case st.Retryable:
		return st, fmt.Errorf("%w: %s", ErrRetryable, st.Error)
	default:
		return st, fmt.Errorf("service: submit rejected (HTTP %d): %s", code, st.Error)
	}
}

// Status fetches a job's state.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	code, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, obs.TraceContext{})
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("service: status: bad response (HTTP %d): %w", code, err)
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("service: status %s (HTTP %d): %s", id, code, st.Error)
	}
	return st, nil
}

// Result fetches a finished job's evaluation (and daemon-side spans).
// A job still queued or running reports ErrNotDone; a failed or
// drain-retried job reports its error.
func (c *Client) Result(ctx context.Context, id string) (JobStatus, error) {
	code, data, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, obs.TraceContext{})
	if err != nil {
		return JobStatus{}, err
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		return JobStatus{}, fmt.Errorf("service: result: bad response (HTTP %d): %w", code, err)
	}
	switch {
	case code == http.StatusOK:
		return st, nil
	case st.Status == StatusQueued || st.Status == StatusRunning:
		return st, fmt.Errorf("%w: %s is %s", ErrNotDone, id, st.Status)
	case st.Retryable:
		return st, fmt.Errorf("%w: %s", ErrRetryable, st.Error)
	default:
		return st, fmt.Errorf("service: job %s: %s: %s", id, st.Status, st.Error)
	}
}

// WaitResult polls until the job leaves the queue and returns its
// result, honoring ctx for cancellation. poll <= 0 means 100ms.
func (c *Client) WaitResult(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Result(ctx, id)
		if !errors.Is(err, ErrNotDone) {
			return st, err
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// EvaluateTraced runs one evaluation remotely end to end: it opens a
// "submit" span under parent (or as a root when parent is nil), carries
// its context to the daemon, waits for the result, and imports the
// daemon's span subtree — queue wait, the job, its pipeline stages —
// under the submit span at RemoteLaneBase, tagged with the daemon
// address and its trace ID. With a nil registry it is a plain
// submit-and-wait.
func (c *Client) EvaluateTraced(ctx context.Context, req JobRequest, reg *obs.Registry, parent *obs.Span, poll time.Duration) (JobStatus, error) {
	var sub *obs.Span
	if parent != nil {
		sub = parent.Child("submit")
	} else {
		sub = reg.StartSpan("submit")
	}
	sub.SetArg("daemon", c.base)
	defer sub.End()

	tc := sub.Context()
	if !tc.Valid() && reg != nil {
		tc = obs.TraceContext{TraceID: reg.TraceID()}
	}
	st, err := c.Submit(ctx, req, tc)
	if err != nil {
		sub.SetArg("err", err.Error())
		return st, err
	}
	sub.SetArg("job", st.ID)
	st, err = c.WaitResult(ctx, st.ID, poll)
	if err != nil {
		sub.SetArg("err", err.Error())
		return st, err
	}
	if len(st.Spans) > 0 {
		n := reg.ImportSpans(st.Spans, sub, RemoteLaneBase, map[string]string{
			"daemon":       c.base,
			"remote_trace": st.TraceID,
		})
		reg.Counter("service.spans.imported").Add(uint64(n))
	}
	return st, nil
}
