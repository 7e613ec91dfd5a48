package obs

// Cross-process trace propagation, the fleet tier's backbone. A
// TraceContext is the pair (trace ID, span ID) a process hands to
// another over an HTTP header so daemon-side work can be stitched under
// the client's span in one merged trace: the blob HTTP client and the
// service jobs client inject it, cmd/served and blob.HandlerObs extract
// it, and ExportSubtrees/ImportSpans move the finished span records
// themselves across the boundary (the daemon returns its job-span
// subtree with the result; the client re-homes it under its submit
// span). Timestamps cross the wire as absolute wall-clock nanoseconds —
// merged timelines are exact on one machine and off by clock skew
// across machines, which is the honest best a header can do.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// TraceHeader is the HTTP header carrying a serialized TraceContext
// ("%016x-%016x", trace ID then span ID).
const TraceHeader = "X-Repro-Trace"

// TraceContext names one span in one process's registry. The zero value
// is "no context" (Valid reports false) and serializes to nothing.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context carries a trace identity. A zero
// SpanID with a non-zero TraceID is valid: "this trace, no particular
// parent span".
func (t TraceContext) Valid() bool { return t.TraceID != 0 }

// String renders the wire form, "%016x-%016x".
func (t TraceContext) String() string {
	return fmt.Sprintf("%016x-%016x", t.TraceID, t.SpanID)
}

// ParseTraceContext decodes the wire form. Anything malformed — wrong
// length, bad hex, zero trace ID — reports ok=false rather than an
// error: an unparsable header means "untraced request", never a failed
// request.
func ParseTraceContext(s string) (TraceContext, bool) {
	if len(s) != 33 || s[16] != '-' {
		return TraceContext{}, false
	}
	tid, err := strconv.ParseUint(s[:16], 16, 64)
	if err != nil || tid == 0 {
		return TraceContext{}, false
	}
	sid, err := strconv.ParseUint(s[17:], 16, 64)
	if err != nil {
		return TraceContext{}, false
	}
	return TraceContext{TraceID: tid, SpanID: sid}, true
}

// Inject sets the trace header on h. Invalid contexts and nil headers
// are no-ops.
func (t TraceContext) Inject(h http.Header) {
	if t.Valid() && h != nil {
		h.Set(TraceHeader, t.String())
	}
}

// ExtractTrace reads the trace header from h; ok is false when the
// header is absent or malformed.
func ExtractTrace(h http.Header) (TraceContext, bool) {
	if h == nil {
		return TraceContext{}, false
	}
	return ParseTraceContext(h.Get(TraceHeader))
}

// Context returns the trace context naming this span: the owning
// registry's trace ID plus the span's ID. A nil span yields the zero
// (invalid) context.
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.r.traceID, SpanID: s.id}
}

// WireSpan is one finished span in cross-process form: IDs are local to
// the exporting registry, and the start time is absolute wall-clock
// nanoseconds so the importer can place it on its own epoch.
type WireSpan struct {
	Name        string            `json:"name"`
	ID          uint64            `json:"id"`
	Parent      uint64            `json:"parent,omitempty"`
	Lane        int               `json:"lane,omitempty"`
	StartUnixNs int64             `json:"start_unix_ns"`
	DurNs       int64             `json:"dur_ns"`
	Args        map[string]string `json:"args,omitempty"`
}

// ExportSubtrees returns the wire form of every finished span whose
// parent chain reaches one of the given root IDs (the roots included),
// in start order. Spans still in flight are absent — export after the
// roots have ended. Nil registry or no roots exports nothing.
func (r *Registry) ExportSubtrees(roots ...uint64) []WireSpan {
	if r == nil || len(roots) == 0 {
		return nil
	}
	rootSet := make(map[uint64]bool, len(roots))
	for _, id := range roots {
		if id != 0 {
			rootSet[id] = true
		}
	}
	if len(rootSet) == 0 {
		return nil
	}
	spans := r.Spans()
	parentOf := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		parentOf[s.ID] = s.Parent
	}
	// reaches memoizes "this span's ancestor chain hits a root". The
	// chain is bounded by the span count, so a corrupt parent cycle
	// cannot loop forever.
	reaches := make(map[uint64]bool, len(spans))
	var walk func(id uint64, hops int) bool
	walk = func(id uint64, hops int) bool {
		if rootSet[id] {
			return true
		}
		if v, ok := reaches[id]; ok {
			return v
		}
		p, ok := parentOf[id]
		if !ok || p == 0 || hops > len(spans) {
			reaches[id] = false
			return false
		}
		v := walk(p, hops+1)
		reaches[id] = v
		return v
	}
	var out []WireSpan
	for _, s := range spans {
		if !walk(s.ID, 0) {
			continue
		}
		out = append(out, r.wire(s))
	}
	return out
}

// wire returns s in cross-process form, its start made absolute wall
// clock.
func (r *Registry) wire(s SpanRecord) WireSpan {
	return WireSpan{
		Name:        s.Name,
		ID:          s.ID,
		Parent:      s.Parent,
		Lane:        s.Lane,
		StartUnixNs: r.epoch.Add(s.Start).UnixNano(),
		DurNs:       s.Dur.Nanoseconds(),
		Args:        s.Args,
	}
}

// ImportSpans merges spans exported by another process's registry into
// this one: every span gets a fresh local ID (so imported IDs never
// collide with native ones), internal parent links are preserved, spans
// whose exported parent is absent from the slice are re-parented under
// parent (the client's submit span; nil leaves them as roots), lanes are
// shifted by laneBase, and wall-clock starts are converted onto this
// registry's epoch. Each extraArgs entry is stamped onto every imported
// span (e.g. the remote daemon's address). Returns the number imported;
// a nil registry imports nothing.
func (r *Registry) ImportSpans(spans []WireSpan, parent *Span, laneBase int, extraArgs map[string]string) int {
	if r == nil || len(spans) == 0 {
		return 0
	}
	idmap := make(map[uint64]uint64, len(spans))
	for _, w := range spans {
		idmap[w.ID] = r.spanID.Add(1)
	}
	var parentID uint64
	if parent != nil {
		parentID = parent.id
	}
	for _, w := range spans {
		rec := SpanRecord{
			Name:  w.Name,
			ID:    idmap[w.ID],
			Lane:  laneBase + w.Lane,
			Start: time.Unix(0, w.StartUnixNs).Sub(r.epoch),
			Dur:   time.Duration(w.DurNs),
		}
		if p, ok := idmap[w.Parent]; ok && w.Parent != 0 {
			rec.Parent = p
		} else {
			rec.Parent = parentID
		}
		if len(w.Args)+len(extraArgs) > 0 {
			rec.Args = make(map[string]string, len(w.Args)+len(extraArgs))
			for k, v := range w.Args {
				rec.Args[k] = v
			}
			for k, v := range extraArgs {
				rec.Args[k] = v
			}
		}
		r.record(rec)
	}
	return len(spans)
}
