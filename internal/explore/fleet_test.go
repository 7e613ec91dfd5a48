package explore_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// TestExploreFleetTelemetryBitIdentical (runs under -race in CI): a
// background metrics sampler observes the exploration and must not steer
// it — the result stays bit-identical to a plain instrumented run, the
// sampler window carries exploration gauges, and the flight dump holds
// the registry's trailing spans.
func TestExploreFleetTelemetryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	plain, _ := runConfig(t, 8, nil)

	reg := obs.NewRegistry()
	sampler := obs.NewSampler(reg)
	// Sample every millisecond while the exploration runs; the
	// sampler's own ticker fires only once a second.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
				sampler.SampleNow()
			}
		}
	}()
	defer func() { close(stop); <-stopped }()

	res, err := explore.New(machines.SPAMSource, sumKernel,
		explore.WithMaxIters(3),
		explore.WithWorkers(8),
		explore.WithObs(reg),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "sampled", plain, res)

	sampler.SampleNow()
	samples := sampler.Samples()
	if len(samples) == 0 {
		t.Fatal("sampler collected nothing during exploration")
	}
	last := samples[len(samples)-1]
	if last.Counters["explore.candidates"] == 0 {
		t.Error("sampled window missing explore.candidates")
	}
	if _, ok := last.Gauges["explore.best.score.milli"]; !ok {
		t.Error("sampled window missing explore.best.score.milli gauge")
	}
	if len(sampler.DashData().Series) == 0 {
		t.Error("dash data empty after an instrumented exploration")
	}

	var buf bytes.Buffer
	if err := reg.WriteFlight(&buf); err != nil {
		t.Fatal(err)
	}
	var flight struct {
		Capacity int            `json:"capacity"`
		Total    int            `json:"total"`
		Spans    []obs.WireSpan `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &flight); err != nil {
		t.Fatal(err)
	}
	// The dump is a view of the registry's own spans: it counts all of
	// them and shows the last 256 to finish, each one the registry knows.
	spans := reg.Spans()
	if flight.Total != len(spans) || len(flight.Spans) != min(len(spans), flight.Capacity) {
		t.Errorf("flight dump total %d with %d spans, registry holds %d", flight.Total, len(flight.Spans), len(spans))
	}
	known := map[uint64]string{}
	for _, sp := range spans {
		known[sp.ID] = sp.Name
	}
	for _, sp := range flight.Spans {
		if name, ok := known[sp.ID]; !ok || name != sp.Name {
			t.Errorf("flight span %d (%s) unknown to the registry", sp.ID, sp.Name)
		}
	}
}
