package obs

// Sampler turns the registry's point-in-time state into a bounded time
// series: every interval it snapshots all counters, gauges, and
// histograms into a fixed ring, which the dashboard (dash.go) renders as
// sparklines. The ring is bounded so a daemon that runs for weeks holds
// a sliding window, not an unbounded log.

import (
	"sync"
	"time"
)

// Sample is one timestamped snapshot of every metric in a registry.
type Sample struct {
	UnixMs   int64
	Counters map[string]uint64
	Gauges   map[string]int64
	Hists    map[string]HistogramSnapshot
}

// Sampling is fixed: one snapshot a second, the last 360 kept (six
// minutes).
const (
	sampleEvery  = time.Second
	sampleWindow = 360
)

// Sampler periodically snapshots a registry into a bounded ring. Create
// with NewSampler, then Start; Stop waits for the sampling goroutine to
// exit. All methods on a nil sampler are no-ops.
type Sampler struct {
	reg   *Registry
	every time.Duration // sampleEvery; tests shorten it

	mu   sync.Mutex
	ring []Sample
	next int
	full bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewSampler returns a sampler taking one snapshot a second and keeping
// the last 360. Nil registry yields nil.
func NewSampler(reg *Registry) *Sampler {
	if reg == nil {
		return nil
	}
	return &Sampler{
		reg:   reg,
		every: sampleEvery,
		ring:  make([]Sample, sampleWindow),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Interval returns the sampling interval (0 for a nil sampler).
func (s *Sampler) Interval() time.Duration {
	if s == nil {
		return 0
	}
	return s.every
}

// Start launches the sampling goroutine. Idempotent; nil-safe.
func (s *Sampler) Start() {
	if s == nil {
		return
	}
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			t := time.NewTicker(s.every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					s.SampleNow()
				case <-s.stop:
					return
				}
			}
		}()
	})
}

// Stop halts sampling and waits for the goroutine to exit. Safe to call
// without Start, more than once, and on nil.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	s.stopOnce.Do(func() { close(s.stop) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	<-s.done
}

// SampleNow takes one snapshot immediately (also used by the ticker).
func (s *Sampler) SampleNow() {
	if s == nil {
		return
	}
	smp := Sample{
		UnixMs:   time.Now().UnixMilli(),
		Counters: s.reg.Counters(),
		Gauges:   s.reg.Gauges(),
		Hists:    s.reg.Histograms(),
	}
	s.mu.Lock()
	s.ring[s.next] = smp
	s.next++
	if s.next == len(s.ring) {
		s.next, s.full = 0, true
	}
	s.mu.Unlock()
}

// Samples returns the window, oldest first.
func (s *Sampler) Samples() []Sample {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.full {
		return append([]Sample(nil), s.ring[:s.next]...)
	}
	out := make([]Sample, 0, len(s.ring))
	out = append(out, s.ring[s.next:]...)
	return append(out, s.ring[:s.next]...)
}
