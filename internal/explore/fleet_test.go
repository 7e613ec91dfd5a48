package explore_test

import (
	"testing"
	"time"

	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// TestExploreFleetTelemetryBitIdentical (runs under -race in CI): a
// background metrics sampler and an attached flight recorder observe the
// exploration, they must not steer it — the result stays bit-identical
// to a plain instrumented run, the sampler window carries exploration
// gauges, and the flight ring holds the trailing spans.
func TestExploreFleetTelemetryBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	plain, _ := runConfig(t, 8, false)

	reg := obs.NewRegistry()
	flight := obs.NewFlightRecorder(64)
	reg.AttachFlight(flight)
	sampler := obs.NewSampler(reg, time.Millisecond, 128)
	sampler.Start()
	defer sampler.Stop()

	res, err := explore.New(machines.SPAMSource, sumKernel,
		explore.WithMaxIters(3),
		explore.WithWorkers(8),
		explore.WithObs(reg),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "sampled+flight", plain, res)

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

	if flight.Total() == 0 || len(flight.Spans()) == 0 {
		t.Error("flight recorder saw no spans during exploration")
	}
	// Every span in the ring is a real span the registry also recorded
	// (ring order may interleave with the registry under concurrency).
	known := map[uint64]bool{}
	for _, sp := range reg.Spans() {
		known[sp.ID] = true
	}
	for _, sp := range flight.Spans() {
		if !known[sp.ID] {
			t.Errorf("flight ring span %d (%s) unknown to the registry", sp.ID, sp.Name)
		}
	}
}
