package obs

import (
	"testing"
	"time"
)

func TestSamplerNilSafety(t *testing.T) {
	var s *Sampler
	s.Start()
	s.SampleNow()
	s.Stop()
	if s.Samples() != nil {
		t.Error("nil sampler Samples() != nil")
	}
	if s.Interval() != 0 {
		t.Error("nil sampler Interval() != 0")
	}
	if doc := s.DashData(); len(doc.Series) != 0 {
		t.Errorf("nil sampler DashData has %d series", len(doc.Series))
	}
	if NewSampler(nil) != nil {
		t.Error("NewSampler(nil registry) != nil")
	}
}

func TestSamplerWindowWrap(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r) // never started; drive by hand
	for i := 1; i <= 365; i++ {
		r.Counter("c").Inc()
		s.SampleNow()
	}
	samples := s.Samples()
	if len(samples) != 360 {
		t.Fatalf("window holds %d, want 360", len(samples))
	}
	for i, smp := range samples {
		if got, want := smp.Counters["c"], uint64(6+i); got != want {
			t.Fatalf("samples[%d].c = %d, want %d (the last 360, oldest first)", i, got, want)
		}
	}
	if got := s.Interval(); got != time.Second {
		t.Errorf("interval = %v, want 1s", got)
	}
}

func TestSamplerStopWithoutStart(t *testing.T) {
	s := NewSampler(NewRegistry())
	s.Stop() // must not hang or panic
	s.Stop() // idempotent
}

func TestSamplerStartStop(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r)
	s.every = time.Millisecond // the fixed second would slow the test
	s.Start()
	deadline := time.After(2 * time.Second)
	for len(s.Samples()) == 0 {
		select {
		case <-deadline:
			t.Fatal("sampler produced no samples in 2s")
		case <-time.After(5 * time.Millisecond):
		}
	}
	s.Stop()
	n := len(s.Samples())
	time.Sleep(20 * time.Millisecond)
	if got := len(s.Samples()); got != n {
		t.Errorf("sampler still sampling after Stop: %d -> %d", n, got)
	}
}

func TestDashDataSeries(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r)
	r.Gauge("explore.best.score.milli").Set(1234)
	r.Gauge("served.queue.depth").Set(7)
	r.Counter("cache.compile.hits").Add(3)
	r.Counter("cache.compile.misses").Add(1)
	r.Counter("cache.store.hits").Add(100) // store tier: excluded from hit rate
	r.Histogram("stage.compile.ns").Observe(2 * time.Millisecond)
	s.SampleNow()

	doc := s.DashData()
	vals := map[string][]DashPoint{}
	for _, series := range doc.Series {
		vals[series.Name] = series.Points
	}
	if pts := vals["explore.best.score"]; len(pts) != 1 || pts[0][1] != 1.234 {
		t.Errorf("explore.best.score = %v, want one point 1.234 (milli divided out)", pts)
	}
	if pts := vals["cache.hit.rate"]; len(pts) != 1 || pts[0][1] != 0.75 {
		t.Errorf("cache.hit.rate = %v, want 0.75 (store tier excluded)", pts)
	}
	if pts := vals["stage.compile.p50.ms"]; len(pts) != 1 || pts[0][1] != 2.0 {
		t.Errorf("stage.compile.p50.ms = %v, want 2.0", pts)
	}
	if _, ok := vals["explore.best.score.milli"]; ok {
		t.Error("raw .milli gauge leaked into the dashboard series")
	}
	// Preferred panels lead the series order.
	if doc.Series[0].Name != "explore.best.score" {
		t.Errorf("series[0] = %s, want explore.best.score first", doc.Series[0].Name)
	}
}

func TestDashDataZeroDenominator(t *testing.T) {
	r := NewRegistry()
	s := NewSampler(r)
	r.Counter("cache.compile.hits") // exists, zero: no division by zero
	s.SampleNow()
	for _, series := range s.DashData().Series {
		if series.Name == "cache.hit.rate" {
			t.Error("cache.hit.rate emitted with zero traffic")
		}
	}
}
