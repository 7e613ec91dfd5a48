package blob

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/obs"
)

// TestHTTPSetTraceHeader: after SetTrace, every client verb carries the
// X-Repro-Trace header; before it (and after clearing), none do.
func TestHTTPSetTraceHeader(t *testing.T) {
	var headers []string
	backing := NewMem()
	inner := Handler(backing)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers = append(headers, r.Header.Get(obs.TraceHeader))
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	c := NewHTTP(srv.URL)
	k := KeyOf("trace", "test")
	if err := c.Put("compile.v2", k, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if headers[0] != "" {
		t.Errorf("untraced request carried header %q", headers[0])
	}

	tc := obs.TraceContext{TraceID: 0xabc, SpanID: 7}
	c.SetTrace(tc)
	if _, err := c.Get("compile.v2", k); err != nil {
		t.Fatal(err)
	}
	if err := c.Put("compile.v2", KeyOf("trace", "second"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, h := range headers[1:] {
		if h != tc.String() {
			t.Errorf("traced request header = %q, want %q", h, tc.String())
		}
	}

	c.SetTrace(obs.TraceContext{}) // invalid clears
	if _, err := c.Get("compile.v2", k); err != nil {
		t.Fatal(err)
	}
	if last := headers[len(headers)-1]; last != "" {
		t.Errorf("cleared client still sends header %q", last)
	}

	var nilClient *HTTP
	nilClient.SetTrace(tc) // must not panic
}

// TestHandlerObsInstrumentation: counters and latency histograms on
// every request; spans only for requests carrying a trace context.
func TestHandlerObsInstrumentation(t *testing.T) {
	reg := obs.NewRegistry()
	srv := httptest.NewServer(HandlerObs(NewMem(), reg))
	t.Cleanup(srv.Close)

	c := NewHTTP(srv.URL)
	k := KeyOf("obs", "test")
	if err := c.Put("compile.v2", k, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("compile.v2", k); err != nil {
		t.Fatal(err)
	}
	if len(reg.Spans()) != 0 {
		t.Errorf("untraced requests recorded %d spans, want 0", len(reg.Spans()))
	}

	c.SetTrace(obs.TraceContext{TraceID: 0xfeed, SpanID: 1})
	if _, err := c.Get("compile.v2", k); err != nil {
		t.Fatal(err)
	}

	counters := reg.Counters()
	if counters["blob.http.get"] != 2 || counters["blob.http.put"] != 1 {
		t.Errorf("counters = %v, want 2 gets and 1 put", counters)
	}
	if reg.Histograms()["blob.http.get.ns"].Count != 2 {
		t.Errorf("get latency histogram count = %d, want 2", reg.Histograms()["blob.http.get.ns"].Count)
	}
	spans := reg.Spans()
	if len(spans) != 1 {
		t.Fatalf("traced request recorded %d spans, want exactly 1", len(spans))
	}
	sp := spans[0]
	if sp.Name != "blob.get" || sp.Args["remote"] == "" {
		t.Errorf("span = %+v, want blob.get tagged with the remote trace", sp)
	}
}
