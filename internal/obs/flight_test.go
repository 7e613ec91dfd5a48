package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// flightOf decodes r's flight dump.
func flightOf(t *testing.T, r *Registry) flightDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	var doc flightDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteFlight output is not valid JSON: %v\n%s", err, buf.Bytes())
	}
	return doc
}

func TestFlightRecorderNilSafety(t *testing.T) {
	var r *Registry
	var buf bytes.Buffer
	if err := r.WriteFlight(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil registry WriteFlight = %v, wrote %q; want nothing", err, buf.String())
	}
}

// TestFlightRecorderRing: the dump holds the last 256 of 300 recorded
// spans, oldest first, with wall-clock starts, and counts all 300.
func TestFlightRecorderRing(t *testing.T) {
	r := NewRegistry()
	for i := 1; i <= 300; i++ {
		r.StartSpan(fmt.Sprintf("s%d", i)).End()
	}
	doc := flightOf(t, r)
	if doc.Capacity != 256 || doc.Total != 300 || len(doc.Spans) != 256 {
		t.Fatalf("capacity %d, total %d, %d spans; want 256, 300, 256", doc.Capacity, doc.Total, len(doc.Spans))
	}
	for i, sp := range doc.Spans {
		if want := fmt.Sprintf("s%d", 45+i); sp.Name != want {
			t.Fatalf("spans[%d] = %s, want %s (the last 256, oldest first)", i, sp.Name, want)
		}
		if start := time.Unix(0, sp.StartUnixNs); time.Since(start) > time.Minute {
			t.Fatalf("spans[%d] starts at %v, not recent wall clock", i, start)
		}
	}
}

// TestFlightRecorderViaRegistry: the dump lists spans in the order they
// finished, not the order they started, imported spans included.
func TestFlightRecorderViaRegistry(t *testing.T) {
	r := NewRegistry()
	outer := r.StartSpan("outer")
	outer.Child("inner").End()
	outer.End()
	r.ImportSpans([]WireSpan{{Name: "remote", ID: 1, StartUnixNs: time.Now().UnixNano()}}, outer, 10, nil)
	doc := flightOf(t, r)
	var names []string
	for _, sp := range doc.Spans {
		names = append(names, sp.Name)
	}
	if got := fmt.Sprint(names); got != "[inner outer remote]" || doc.Total != 3 {
		t.Errorf("flight spans %s (total %d), want [inner outer remote] (total 3)", got, doc.Total)
	}
}

// TestFlightRecorderDefaultCapacity: an empty registry still reports
// the fixed capacity and an empty span list, not null.
func TestFlightRecorderDefaultCapacity(t *testing.T) {
	var buf bytes.Buffer
	if err := NewRegistry().WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	want := "{\n  \"capacity\": 256,\n  \"total\": 0,\n  \"spans\": []\n}\n"
	if buf.String() != want {
		t.Errorf("empty flight dump = %q, want %q", buf.String(), want)
	}
}
