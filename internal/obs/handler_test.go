package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandler drives every route of the debug surface through one
// handler, with and without a sampler.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("served.jobs.done").Inc()
	r.Gauge("served.queue.depth").Set(1)
	r.Histogram("stage.compile.ns").Observe(2 * time.Millisecond)
	r.StartSpan("work").End()
	s := NewSampler(r)
	s.SampleNow()

	hasCounter := func(t *testing.T, body string) {
		var doc struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil || doc.Counters["served.jobs.done"] != 1 {
			t.Errorf("metrics JSON (%v): %.200s", err, body)
		}
	}
	series := func(want bool) func(*testing.T, string) {
		return func(t *testing.T, body string) {
			var doc DashDoc
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("dash data is not JSON: %v", err)
			}
			if got := len(doc.Series) > 0; got != want {
				t.Errorf("dash data has %d series, want series: %v", len(doc.Series), want)
			}
		}
	}
	cases := []struct {
		name    string
		sampler *Sampler
		path    string
		code    int
		ctype   string // prefix of the Content-Type
		check   func(*testing.T, string)
	}{
		{"metrics", s, "/metrics", 200, "application/json", hasCounter},
		{"metrics json", s, "/metrics?format=json", 200, "application/json", hasCounter},
		{"metrics prom", s, "/metrics?format=prom", 200, "text/plain; version=0.0.4", func(t *testing.T, body string) {
			if err := CheckExposition([]byte(body)); err != nil || !strings.Contains(body, "served_jobs_done_total 1") {
				t.Errorf("exposition (%v):\n%s", err, body)
			}
		}},
		{"metrics text", s, "/metrics?format=text", 200, "text/plain", func(t *testing.T, body string) {
			if !strings.Contains(body, "counters:") || !strings.Contains(body, "served.jobs.done") {
				t.Errorf("text table:\n%s", body)
			}
		}},
		{"metrics unknown format", s, "/metrics?format=bogus", 400, "text/plain", nil},
		{"dash", s, "/dash", 200, "text/html", func(t *testing.T, body string) {
			if !strings.Contains(body, "<!doctype html>") || !strings.Contains(body, "prefers-color-scheme: dark") {
				t.Errorf("dashboard page without doctype or dark palette: %.60q", body)
			}
		}},
		{"dash data", s, "/dash/data", 200, "application/json", series(true)},
		{"dash data without sampler", nil, "/dash/data", 200, "application/json", series(false)},
		{"flight", s, "/debug/flight", 200, "application/json", func(t *testing.T, body string) {
			var doc flightDoc
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("flight dump is not JSON: %v", err)
			}
			if doc.Capacity != 256 || doc.Total != 1 || len(doc.Spans) != 1 || doc.Spans[0].Name != "work" {
				t.Errorf("flight dump = %+v", doc)
			}
		}},
		{"unknown path", s, "/debug/pprof/", 404, "text/plain", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			Handler(r, c.sampler).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, c.path, nil))
			if rec.Code != c.code {
				t.Errorf("GET %s = %d, want %d", c.path, rec.Code, c.code)
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, c.ctype) {
				t.Errorf("GET %s content type %q, want %s...", c.path, ct, c.ctype)
			}
			if c.check != nil {
				c.check(t, rec.Body.String())
			}
		})
	}
}
