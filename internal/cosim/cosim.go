// Package cosim fans independent event-driven Verilog simulations across a
// bounded worker pool — the Table 1 measurement's slow side, parallelized
// with the same discipline as explore's worker pool: jobs are handed to
// workers in index order and results are reduced in index order, so the
// outcome is bit-identical to the sequential loop no matter how the workers
// interleave.
//
// Safety of the fan-out rests on an audited invariant: verilog.NewSim only
// reads the parsed *verilog.Module, and everything it resolves and compiles
// from it (slot tables, widths, compiled expressions and statements, net
// values, memories, the event queue) lives in the Sim, never in the Module.
// Parse resolves nothing, so the module a job gets — typically
// hgen.Result.Module, which HGEN's gate has already elaborated once — is
// exactly the parsed text. bitvec.Value is immutable (every operation
// returns a fresh value), so any number of concurrent Sims may share one
// parsed Module and one program image. The -race co-simulation tests
// (cosim, hgen, experiments) exercise exactly that sharing, and
// verilog's TestElaborationKeepsModule pins that elaboration writes
// nothing back.
//
// Measurement is first-class: each worker owns a Lane that separates setup
// time (elaboration, program load) from simulation time (the Tick loop) and
// accumulates cycle/event counts, reported through internal/obs as
// per-worker counters, per-job latency histograms and one span per job on
// the worker's trace lane. The parallel speedup is therefore measured —
// summed per-instance simulation time over wall clock — never assumed.
package cosim

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/verilog"
)

// Pool runs independent co-simulation jobs over a bounded worker pool.
// The zero value is usable: NumCPU workers, no instrumentation, real clock.
type Pool struct {
	// Workers bounds concurrency (<= 0 means runtime.NumCPU()).
	Workers int
	// Obs, when non-nil, receives cosim.* counters, per-job setup/sim
	// latency histograms, and one span per job on the owning worker's lane
	// (worker w on lane 1+w; lane 0 belongs to the caller).
	Obs *obs.Registry
	// Now is the clock used for the setup/sim/wall timing windows; nil
	// means time.Now. Tests inject a fake clock to pin the windows down
	// exactly.
	Now func() time.Time
}

// NumWorkers returns the effective worker count.
func (p *Pool) NumWorkers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.NumCPU()
}

func (p *Pool) clock() func() time.Time {
	if p.Now != nil {
		return p.Now
	}
	return time.Now
}

// Lane is one worker's measurement context. A Lane is owned by exactly one
// worker goroutine for the duration of a Run; jobs record their work
// through it and the pool aggregates the lanes into Stats afterwards.
type Lane struct {
	// Worker is the owning worker's index in [0, NumWorkers).
	Worker int

	lane    int
	now     func() time.Time
	cycles  uint64
	events  uint64
	setup   time.Duration
	sim     time.Duration
	cCycles *obs.Counter
	cEvents *obs.Counter
	hSetup  *obs.Histogram
	hSim    *obs.Histogram
}

// AddCycles records n simulated clock cycles on this lane.
func (l *Lane) AddCycles(n uint64) {
	l.cycles += n
	l.cCycles.Add(n)
}

// AddEvents records n event-driven process evaluations on this lane.
func (l *Lane) AddEvents(n uint64) {
	l.events += n
	l.cEvents.Add(n)
}

// Cycles returns the lane's accumulated cycle count so far.
func (l *Lane) Cycles() uint64 { return l.cycles }

// Events returns the lane's accumulated event count so far.
func (l *Lane) Events() uint64 { return l.events }

// Setup runs f inside the lane's setup-time window (elaboration, program
// load — everything Table 1 must exclude from the simulation denominator).
func (l *Lane) Setup(f func() error) error {
	t0 := l.now()
	err := f()
	d := l.now().Sub(t0)
	l.setup += d
	l.hSetup.Observe(d)
	return err
}

// Sim runs f inside the lane's simulation-time window (the Tick loop).
func (l *Lane) Sim(f func() error) error {
	t0 := l.now()
	err := f()
	d := l.now().Sub(t0)
	l.sim += d
	l.hSim.Observe(d)
	return err
}

// Stats aggregates the measured work of one Run (or, via Add, several).
type Stats struct {
	// Jobs is the number of jobs executed.
	Jobs int
	// Workers is the effective worker count.
	Workers int
	// Cycles and Events sum every lane's AddCycles/AddEvents.
	Cycles uint64
	Events uint64
	// Setup is the summed per-job setup time (outside the timed window).
	Setup time.Duration
	// Sim is the summed per-job simulation (Tick-loop) time — the
	// serial-equivalent cost of the work.
	Sim time.Duration
	// Wall is the wall-clock duration of the whole fan-out.
	Wall time.Duration
}

// Add merges two measurements (batched Runs): counts and durations sum,
// Workers keeps the maximum.
func (s Stats) Add(o Stats) Stats {
	s.Jobs += o.Jobs
	s.Cycles += o.Cycles
	s.Events += o.Events
	s.Setup += o.Setup
	s.Sim += o.Sim
	s.Wall += o.Wall
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
	return s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// SimCyclesPerSec is the per-instance simulator speed: cycles over summed
// Tick-loop time. This is the honest Table 1 denominator — it excludes
// setup and does not credit parallelism.
func (s Stats) SimCyclesPerSec() float64 {
	return ratio(float64(s.Cycles), s.Sim.Seconds())
}

// AggregateCyclesPerSec is the pool throughput: cycles over wall clock.
func (s Stats) AggregateCyclesPerSec() float64 {
	return ratio(float64(s.Cycles), s.Wall.Seconds())
}

// Speedup is the measured parallelism of the fan-out: summed per-instance
// simulation time over wall clock (1.0 ≈ serial; ≈ Workers when the pool
// keeps every worker busy). This equals the true parallel-vs-serial
// wall-clock speedup when workers have free cores; with more workers than
// cores, per-instance time inflates under contention and this measures
// oversubscription, not gain — compare AggregateCyclesPerSec across worker
// counts for the honest wall-clock answer.
func (s Stats) Speedup() float64 {
	return ratio(s.Sim.Seconds(), s.Wall.Seconds())
}

// Run executes jobs 0..n-1 across the pool, calling job(i, lane) for each.
// Jobs must be mutually independent. The returned error is the
// lowest-index failure (reduced in index order after all jobs finish),
// exactly as a sequential loop that kept going would report; Stats
// aggregates every lane's measurements either way.
func (p *Pool) Run(name string, n int, job func(i int, l *Lane) error) (Stats, error) {
	workers := p.NumWorkers()
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	now := p.clock()
	lanes := make([]*Lane, workers)
	for w := range lanes {
		lanes[w] = &Lane{
			Worker:  w,
			lane:    1 + w,
			now:     now,
			cCycles: p.Obs.Counter(fmt.Sprintf("cosim.worker%d.cycles", w)),
			cEvents: p.Obs.Counter(fmt.Sprintf("cosim.worker%d.events", w)),
			hSetup:  p.Obs.Histogram("cosim.job.setup.ns"),
			hSim:    p.Obs.Histogram("cosim.job.sim.ns"),
		}
		p.Obs.SetLaneName(1+w, fmt.Sprintf("cosim worker %d", w))
	}

	root := p.Obs.StartSpan(name)
	errs := make([]error, n)
	runJob := func(i int, l *Lane) {
		sp := root.ChildLane("job", l.lane)
		sp.SetArg("job", strconv.Itoa(i))
		errs[i] = job(i, l)
		if errs[i] != nil {
			sp.SetArg("err", errs[i].Error())
		}
		sp.End()
	}

	start := now()
	next := make(chan int)
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *Lane) {
			defer wg.Done()
			for i := range next {
				runJob(i, l)
			}
		}(l)
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	wall := now().Sub(start)
	root.SetArg("jobs", strconv.Itoa(n))
	root.End()

	stats := Stats{Jobs: n, Workers: workers, Wall: wall}
	for _, l := range lanes {
		stats.Cycles += l.cycles
		stats.Events += l.events
		stats.Setup += l.setup
		stats.Sim += l.sim
	}
	p.Obs.Counter("cosim.jobs").Add(uint64(n))
	p.Obs.Counter("cosim.cycles").Add(stats.Cycles)
	p.Obs.Counter("cosim.events").Add(stats.Events)

	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// Workload is the standard co-simulation job shape: elaborate a fresh Sim
// over a shared (read-only) Module, initialize memories, then tick the
// clock net "clk" until the net "halted" (HGEN's names for both) goes
// nonzero. Elaboration and Init are timed as setup; only the Tick loop is
// timed as simulation.
type Workload struct {
	// Mod is the parsed module; it may be shared by concurrent jobs.
	Mod *verilog.Module
	// Init loads program and data memories (timed as setup). May be nil.
	Init func(hw *verilog.Sim) error
	// MaxCycles bounds the run (0 = until halt).
	MaxCycles uint64
	// Stop, when non-nil, is polled each cycle and ends the run early —
	// the budget guard for very slow hosts.
	Stop func() bool
}

// Run executes the workload on lane l and returns the finished simulator
// (for final-state inspection). Cycle and event totals are recorded on the
// lane; the event count includes the settles Init triggered, since those
// are real event-driven work, while the *time* they took stays in the
// setup window.
func (w Workload) Run(l *Lane) (*verilog.Sim, error) {
	var hw *verilog.Sim
	err := l.Setup(func() error {
		var err error
		hw, err = verilog.NewSim(w.Mod)
		if err != nil {
			return err
		}
		if w.Init != nil {
			return w.Init(hw)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var cycles uint64
	err = l.Sim(func() error {
		for {
			if err := hw.Tick("clk"); err != nil {
				return err
			}
			cycles++
			hv, err := hw.Get("halted")
			if err != nil {
				return err
			}
			if !hv.IsZero() {
				return nil
			}
			if w.MaxCycles > 0 && cycles >= w.MaxCycles {
				return nil
			}
			if w.Stop != nil && w.Stop() {
				return nil
			}
		}
	})
	l.AddCycles(cycles)
	l.AddEvents(hw.Events())
	if err != nil {
		return nil, err
	}
	return hw, nil
}

// LoadProgram loads an assembled program image — instruction words plus
// initialized data — into a generated hardware model's memories (the
// "s_"-prefixed storage nets HGEN emits). It is the usual Workload.Init.
func LoadProgram(hw *verilog.Sim, p *asm.Program) error {
	im := "s_" + p.Desc.InstructionMemory().Name
	for i, w := range p.Words {
		if err := hw.SetMem(im, p.Base+i, w); err != nil {
			return err
		}
	}
	for _, di := range p.Data {
		for i, v := range di.Values {
			if err := hw.SetMem("s_"+di.Storage, di.Base+i, v); err != nil {
				return err
			}
		}
	}
	return nil
}
