package blob

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// blobsPrefix is the URL tree both the client and Handler agree on; the
// server (cmd/served, or any process mounting Handler there) is the
// shared front door two explorers on different machines meet at.
const blobsPrefix = "/v1/blobs/"

// maxBlobBytes bounds one blob on the wire (and in a Handler-backed
// server's memory). Stage artifacts are a few KB of JSON, so 64 MiB is
// far past any blob the pipeline writes.
const maxBlobBytes = 64 << 20

// HTTP is the remote Store client: GET/PUT against
// base + /v1/blobs/{ns}/{key}.
type HTTP struct {
	base   string
	client *http.Client

	mu    sync.Mutex
	trace obs.TraceContext
}

// NewHTTP returns a client for the store served at base
// (e.g. "http://build-host:8344"). A trailing slash is tolerated.
func NewHTTP(base string) *HTTP {
	return &HTTP{
		base:   strings.TrimSuffix(base, "/"),
		client: &http.Client{Timeout: 30 * time.Second},
	}
}

func (s *HTTP) url(ns string, key Key) string {
	return s.base + blobsPrefix + ns + "/" + key.String()
}

// SetTrace makes every subsequent request carry tc in the X-Repro-Trace
// header, so a traced server (HandlerObs) records its side of each blob
// transfer under the caller's trace. An invalid context clears it; a
// nil client is a no-op. Safe for concurrent use with requests.
func (s *HTTP) SetTrace(tc obs.TraceContext) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.trace = tc
	s.mu.Unlock()
}

// newRequest builds a request with the trace header (when set) injected.
func (s *HTTP) newRequest(method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	tc := s.trace
	s.mu.Unlock()
	tc.Inject(req.Header)
	return req, nil
}

// Get implements Store.
func (s *HTTP) Get(ns string, key Key) ([]byte, error) {
	if err := checkNS(ns); err != nil {
		return nil, err
	}
	req, err := s.newRequest(http.MethodGet, s.url(ns, key), nil)
	if err != nil {
		return nil, fmt.Errorf("blob: http get: %w", err)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("blob: http get: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := io.ReadAll(io.LimitReader(resp.Body, maxBlobBytes+1))
		if err != nil {
			return nil, fmt.Errorf("blob: http get: %w", err)
		}
		if len(data) > maxBlobBytes {
			return nil, fmt.Errorf("blob: http get %s/%s: blob exceeds %d bytes", ns, key, maxBlobBytes)
		}
		return data, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("blob: %s/%s: %w", ns, key, ErrNotFound)
	default:
		return nil, fmt.Errorf("blob: http get %s/%s: %s", ns, key, resp.Status)
	}
}

// Put implements Store.
func (s *HTTP) Put(ns string, key Key, data []byte) error {
	if err := checkNS(ns); err != nil {
		return err
	}
	req, err := s.newRequest(http.MethodPut, s.url(ns, key), strings.NewReader(string(data)))
	if err != nil {
		return fmt.Errorf("blob: http put: %w", err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := s.client.Do(req)
	if err != nil {
		return fmt.Errorf("blob: http put: %w", err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("blob: http put %s/%s: %s", ns, key, resp.Status)
	}
	return nil
}

// Handler serves a Store over the /v1/blobs/{ns}/{key} tree the HTTP
// client speaks: GET returns the blob (404 when absent), PUT stores the
// body (idempotently; 204 on success), and any other method answers 405.
// Mount it at the server root — it routes by full path, so it composes
// with other handlers on the same mux.
func Handler(s Store) http.Handler { return HandlerObs(s, nil) }

// HandlerObs is Handler with server-side observability: every request
// bumps a blob.http.<method> counter and observes a blob.http.<method>.ns
// latency histogram, and requests carrying an X-Repro-Trace header (see
// HTTP.SetTrace) additionally record one blob.<method> span tagged with
// the namespace, key prefix, and remote trace context — so a traced
// client's transfers are visible on the server's own timeline without
// flooding the registry with a span per untraced request. A nil registry
// is exactly Handler.
func HandlerObs(s Store, reg *obs.Registry) http.Handler {
	inner := blobMux(s)
	if reg == nil {
		return inner
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method := strings.ToLower(r.Method)
		start := time.Now()
		var sp *obs.Span
		if tc, ok := obs.ExtractTrace(r.Header); ok {
			sp = reg.StartSpanLane("blob."+method, blobSpanLane)
			sp.SetArg("path", strings.TrimPrefix(r.URL.Path, blobsPrefix))
			sp.SetArg("remote", tc.String())
		}
		inner.ServeHTTP(w, r)
		sp.End()
		reg.Counter("blob.http." + method).Inc()
		reg.Histogram("blob.http." + method + ".ns").Observe(time.Since(start))
	})
}

// blobSpanLane keeps server-side blob spans off the job/worker lanes in
// the exported trace.
const blobSpanLane = 9

// blobMux is the uninstrumented request handler behind Handler and
// HandlerObs.
func blobMux(s Store) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(blobsPrefix+"{ns}/{key}", func(w http.ResponseWriter, r *http.Request) {
		ns := r.PathValue("ns")
		if err := checkNS(ns); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		key, err := ParseKey(r.PathValue("key"))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			data, err := s.Get(ns, key)
			if errors.Is(err, ErrNotFound) {
				http.Error(w, "not found", http.StatusNotFound)
				return
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/octet-stream")
			w.Write(data)
		case http.MethodPut:
			data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBlobBytes))
			if err != nil {
				http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
				return
			}
			if err := s.Put(ns, key, data); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})
	return mux
}
