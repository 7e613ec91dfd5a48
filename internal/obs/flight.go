package obs

// The flight dump is the postmortem view of a registry: the last
// flightSize spans it recorded, in completion order. When a daemon
// wedges, it answers "what were the last things that finished, and
// when?" without a full trace export. Handler serves it at
// /debug/flight, and DumpFlightOnQuit writes it to stderr on SIGQUIT.

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
)

// flightSize is how many of the most recently recorded spans the flight
// dump shows.
const flightSize = 256

// flightDoc is the WriteFlight shape.
type flightDoc struct {
	Capacity int        `json:"capacity"`
	Total    uint64     `json:"total"`
	Spans    []WireSpan `json:"spans"`
}

// WriteFlight writes the flight dump as one indented JSON document:
// capacity (256), total (every span recorded so far) and the last 256
// spans, oldest first, as WireSpans with wall-clock starts. A nil
// registry writes nothing and reports no error.
func (r *Registry) WriteFlight(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	total := len(r.spans)
	tail := append([]SpanRecord(nil), r.spans[max(0, total-flightSize):]...)
	r.mu.Unlock()
	doc := flightDoc{Capacity: flightSize, Total: uint64(total), Spans: make([]WireSpan, len(tail))}
	for i, s := range tail {
		doc.Spans[i] = r.wire(s)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&doc)
}

// DumpFlightOnQuit writes reg's flight dump to stderr, headed by
// "<prog>: flight recorder dump (SIGQUIT):", each time the process
// receives SIGQUIT, without stopping it. The listener lives as long as
// the process: call it once, from main.
func DumpFlightOnQuit(reg *Registry, prog string) {
	quit := make(chan os.Signal, 1)
	signal.Notify(quit, syscall.SIGQUIT)
	go func() {
		for range quit {
			fmt.Fprintf(os.Stderr, "%s: flight recorder dump (SIGQUIT):\n", prog)
			if err := reg.WriteFlight(os.Stderr); err != nil {
				log.Printf("%s: flight dump: %v", prog, err)
			}
		}
	}()
}
