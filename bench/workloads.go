package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/cosim"
	"repro/internal/explore"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/randmachine"
	"repro/internal/suite"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// Fixed load: the host has two vCPUs and one sample process runs at a time,
// so both pools get exactly two workers whatever NumCPU says.
const (
	exploreWorkers = 2
	cosimWorkers   = 2
	ilsBatchRuns   = 50 // Load+Run calls per timed ILS batch
	sweepRandom    = 4  // seeded random machines appended to the zoo
)

// workload is one benchmark workload. setup runs in the sample process
// before the first timed operation; the runner it returns does the timed
// work of one sample and checks every output it produces.
type workload struct {
	name    string
	why     string
	op      string // what one unit of ops_per_s_p90 counts
	samples int    // samples in a full set
	setup   func(c config) (runner, error)
}

type runner interface{ run() *sample }

// config is what a sample process knows about its run. reg and acc are
// non-nil only in a traced sample.
type config struct {
	seed  int64
	smoke bool
	reg   *obs.Registry
	acc   map[string]float64
}

// scale picks the full-set or the smoke-test size of a workload.
func (c config) scale(full, smoke int) int {
	if c.smoke {
		return smoke
	}
	return full
}

// add accumulates a per-layer figure; a no-op in untraced samples.
func (c config) add(name string, v float64) {
	if c.acc != nil {
		c.acc[name] += v
	}
}

var workloads = []*workload{
	{
		name:    "explore-spam-hill",
		why:     "HGEN resource sharing dominates stage time: the layer a synthesis speed-up must move",
		op:      "candidate",
		samples: 5,
		setup: exploreSetup("spam", true, func(c config) []explore.Option {
			return []explore.Option{explore.WithMaxIters(c.scale(8, 1))}
		}),
	},
	{
		name:    "explore-riscv5-pareto",
		why:     "many cheap candidates: simulate, parse, dedup and frontier folding dominate, synthesis barely shows",
		op:      "candidate",
		samples: 5,
		// Unperturbed: from perturbed bases the unbounded frontier grew to
		// 1065–4892 candidates (217–1043 MB) depending on the seed, so the
		// seed rather than the program would set the workload's size.
		setup: exploreSetup("riscv5", false, func(c config) []explore.Option {
			return []explore.Option{explore.WithPareto(0, explore.Constraints{}), explore.WithMaxIters(c.scale(6, 1))}
		}),
	},
	{
		name:    "table1-ils",
		why:     "long warm runs of the Table 1 program on the default in-process simulator, set-up excluded",
		op:      "simulated cycle",
		samples: 5,
		setup:   setupILS,
	},
	{
		name:    "table1-verilog",
		why:     "the Table 1 program on the synthesized Verilog, free-running on a 2-worker cosim pool",
		op:      "simulated cycle",
		samples: 5,
		setup:   setupVerilog,
	},
	{
		name:    "zoo-sweep",
		why:     "many short cold runs where parse, prepare, synthesis and engine set-up dominate",
		op:      "sweep",
		samples: 40,
		setup:   setupSweep,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func zooSource(name string) (string, error) {
	for _, e := range machines.Zoo() {
		if e.Name == name {
			return e.Source, nil
		}
	}
	return "", fmt.Errorf("no zoo machine %q", name)
}

func parseISDL(c config, src string) (*isdl.Description, error) {
	sp := c.reg.StartSpan("isdl.parse")
	defer sp.End()
	return isdl.Parse(src)
}

func prepare(c config, w *suite.Workload, d *isdl.Description) (*asm.Program, suite.Out, []uint64, error) {
	sp := c.reg.StartSpan("suite.prepare")
	defer sp.End()
	return suite.Prepare(w, d)
}

func synthesize(c config, d *isdl.Description) (*hgen.Result, error) {
	sp := c.reg.StartSpan("hgen.synthesize")
	r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	sp.End()
	if err != nil {
		return nil, err
	}
	for _, ph := range []string{"share", "retime", "emit"} {
		if s, ok := r.PhaseSeconds[ph]; ok {
			c.add("hgen."+ph+"_s", s)
		}
	}
	c.add("hgen.synthesize_n", 1)
	return r, nil
}

// simulate runs prog once on a fresh default-backend engine and checks the
// output region against ref.
func simulate(c config, d *isdl.Description, prog *asm.Program, out suite.Out, ref []uint64) (uint64, error) {
	sp := c.reg.StartSpan("xsim.setup")
	eng, _, err := xsim.NewEngine(d, "")
	if err == nil {
		err = eng.Load(prog)
	}
	sp.End()
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	sp = c.reg.StartSpan("xsim.run")
	err = eng.Run(suite.DefaultLimit)
	sp.End()
	if err != nil {
		return 0, err
	}
	return eng.Cycle(), checkEngine(c, eng, out, ref)
}

// checkEngine verifies a finished engine: halted, no fault, and the output
// region equal to the reference.
func checkEngine(c config, eng xsim.Engine, out suite.Out, ref []uint64) error {
	if err := eng.Err(); err != nil {
		return fmt.Errorf("faulted: %w", err)
	}
	if !eng.Halted() {
		return fmt.Errorf("did not halt")
	}
	c.add("xsim.instructions", float64(eng.Stats().Instructions))
	vals := eng.Snapshot()[out.Storage]
	if out.Base+len(ref) > len(vals) {
		return fmt.Errorf("output region %s[%d..] outside storage of depth %d", out.Storage, out.Base, len(vals))
	}
	got := make([]uint64, len(ref))
	for i := range got {
		got[i] = vals[out.Base+i].Uint64()
	}
	return checkRegion(out.Storage, out.Base, got, ref)
}

func checkRegion(storage string, base int, got, want []uint64) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, reference %d", storage, base+i, got[i], want[i])
		}
	}
	return nil
}

// --- exploration -----------------------------------------------------------

type exploreRun struct {
	c      config
	base   string
	kernel string
	fir    *suite.Workload
	opts   []explore.Option
	cands  int // candidates evaluated, counted from the event log
}

// exploreSetup resolves the fir kernel's DATA storage on the start machine:
// the zoo machine, perturbed by the seed when perturb is set so that each
// seed explores from a different start.
func exploreSetup(machine string, perturb bool, strategy func(config) []explore.Option) func(config) (runner, error) {
	return func(c config) (runner, error) {
		base, err := zooSource(machine)
		if err != nil {
			return nil, err
		}
		if perturb {
			if base, _, err = randmachine.Perturb(rand.New(rand.NewSource(c.seed)), base, 2); err != nil {
				return nil, err
			}
		}
		d, err := parseISDL(c, base)
		if err != nil {
			return nil, err
		}
		mem, err := suite.DataMemoryFor(d)
		if err != nil {
			return nil, err
		}
		fir, err := suite.Get("fir")
		if err != nil {
			return nil, err
		}
		kernel := strings.ReplaceAll(fir.Kernel, " in "+suite.DataPlaceholder+" ", " in "+mem.Name+" ")
		r := &exploreRun{c: c, base: base, kernel: kernel, fir: fir}
		r.opts = append([]explore.Option{
			explore.WithWorkers(exploreWorkers),
			explore.WithObs(c.reg),
			explore.WithLog(func(ev explore.Event) {
				// One event per evaluated candidate; a constrained Pareto
				// base repeats as an infeasible event at iteration 0.
				if ev.Kind == "base" || ev.Kind == "candidate" || (ev.Kind == "infeasible" && ev.Iter > 0) {
					r.cands++
				}
			}),
		}, strategy(c)...)
		return r, nil
	}
}

func (r *exploreRun) run() *sample {
	s := newSample()
	s.Attempted = 1
	s.begin()
	res, err := explore.New(r.base, r.kernel, r.opts...).Run()
	wall := s.end()
	if err != nil {
		s.fail(err)
		return s
	}
	cands := float64(r.cands)
	s.Obs = []float64{cands / wall}
	s.Digest = decisionDigest(res)
	w := explore.DefaultWeights()
	score := res.Final.Score(w.Runtime, w.Area, w.Power)
	s.Counts["explore.candidates"] = cands
	s.Counts["explore.final_score"] = score
	if err := r.verify(res.FinalSource); err != nil {
		s.fail(fmt.Errorf("winner: %w", err))
	}
	if r.c.reg != nil {
		r.c.add("explore.candidates", cands)
		r.c.add("explore.final_score", score)
		exploreLayers(r.c, wall, exploreWorkers)
	}
	return s
}

// verify re-runs the fir kernel on the winning machine and checks its
// output against the golden reference.
func (r *exploreRun) verify(src string) error {
	d, err := parseISDL(r.c, src)
	if err != nil {
		return err
	}
	prog, out, ref, err := prepare(r.c, r.fir, d)
	if err != nil {
		return err
	}
	_, err = simulate(r.c, d, prog, out, ref)
	return err
}

// decisionDigest fingerprints everything the exploration decided: every
// scored step in order, the frontier, and the winner.
func decisionDigest(res *explore.Result) string {
	h := sha256.New()
	for _, s := range res.Steps {
		fmt.Fprintf(h, "%d %d %s %x %t %s\n", s.Restart, s.Iter, s.Action, math.Float64bits(s.Score), s.Accepted, s.Infeasible)
	}
	for _, p := range res.Frontier {
		fmt.Fprintf(h, "frontier %s %x\n", p.Action, math.Float64bits(p.Score))
	}
	h.Write([]byte(res.FinalSource))
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// --- Table 1 ---------------------------------------------------------------

// table1 is the paper's Table 1 program (fir16.spam) prepared for SPAM. It
// does not depend on the seed.
type table1 struct {
	c    config
	d    *isdl.Description
	prog *asm.Program
	out  suite.Out
	ref  []uint64
}

func loadTable1(c config) (*table1, error) {
	w, err := suite.Get("fir16.spam")
	if err != nil {
		return nil, err
	}
	src, err := zooSource(w.Machine)
	if err != nil {
		return nil, err
	}
	d, err := parseISDL(c, src)
	if err != nil {
		return nil, err
	}
	prog, out, ref, err := prepare(c, w, d)
	if err != nil {
		return nil, err
	}
	return &table1{c: c, d: d, prog: prog, out: out, ref: ref}, nil
}

type ilsRun struct {
	*table1
	eng     xsim.Engine
	batches int
}

func setupILS(c config) (runner, error) {
	t, err := loadTable1(c)
	if err != nil {
		return nil, err
	}
	sp := c.reg.StartSpan("xsim.setup")
	eng, _, err := xsim.NewEngine(t.d, "")
	// One untimed run fills the engine's lazily built decode and operation
	// caches, so batches time warm runs only.
	if err == nil {
		err = eng.Load(t.prog)
	}
	if err == nil {
		err = eng.Run(0)
	}
	sp.End()
	if err != nil {
		return nil, err
	}
	return &ilsRun{table1: t, eng: eng, batches: c.scale(20, 2)}, nil
}

func (r *ilsRun) run() *sample {
	defer r.eng.Close()
	s := newSample()
	s.begin()
	var cycles uint64
	for b := 0; b < r.batches; b++ {
		var batchCycles uint64
		var batchTime time.Duration
		for i := 0; i < ilsBatchRuns; i++ {
			s.Attempted++
			sp := r.c.reg.StartSpan("xsim.run")
			t0 := time.Now()
			err := r.eng.Load(r.prog)
			if err == nil {
				err = r.eng.Run(0)
			}
			batchTime += time.Since(t0)
			sp.End()
			if err == nil {
				cycles = r.eng.Cycle()
				batchCycles += cycles
				err = checkEngine(r.c, r.eng, r.out, r.ref)
			}
			if err != nil {
				s.fail(fmt.Errorf("ILS run: %w", err))
			}
		}
		s.Obs = append(s.Obs, float64(batchCycles)/batchTime.Seconds())
	}
	s.end()
	s.Counts["accuracy.ils_cycles"] = float64(cycles)
	if r.c.reg != nil {
		r.c.add("accuracy.ils_cycles", float64(cycles))
		r.backendRows(s)
	}
	return s
}

// backendRows measures engine set-up and run speed of every backend
// xsim.Backends lists (traced samples only; aot builds its simulator into
// the fresh REPRO_GENSIM_CACHE the parent gives a traced sample). A
// backend that falls back to another is left absent; one whose output is
// wrong fails the sample.
func (r *ilsRun) backendRows(s *sample) {
	for _, b := range xsim.Backends() {
		sp := r.c.reg.StartSpan("xsim." + string(b) + ".setup")
		t0 := time.Now()
		eng, info, err := xsim.NewEngine(r.d, b)
		setup := time.Since(t0)
		sp.End()
		if err != nil || info.Used != b {
			if eng != nil {
				eng.Close()
			}
			continue
		}
		var cycles uint64
		var dt time.Duration
		for i := 0; i < ilsBatchRuns && err == nil; i++ {
			s.Attempted++
			t0 := time.Now()
			if err = eng.Load(r.prog); err == nil {
				err = eng.Run(0)
			}
			dt += time.Since(t0)
			if err == nil {
				cycles += eng.Cycle()
				err = checkEngine(config{}, eng, r.out, r.ref)
			}
		}
		eng.Close()
		if err != nil {
			s.fail(fmt.Errorf("%s backend: %w", b, err))
			continue
		}
		r.c.add("xsim."+string(b)+".setup_s", setup.Seconds())
		r.c.add("xsim."+string(b)+".cycles_per_s", float64(cycles)/dt.Seconds())
	}
}

type verilogRun struct {
	*table1
	mod       *verilog.Module
	imem      string
	ilsCycles uint64
	runs      int
}

func setupVerilog(c config) (runner, error) {
	t, err := loadTable1(c)
	if err != nil {
		return nil, err
	}
	// The ILS run gives the cycle count the hardware model is compared with.
	ilsCycles, err := simulate(c, t.d, t.prog, t.out, t.ref)
	if err != nil {
		return nil, fmt.Errorf("ILS reference run: %w", err)
	}
	hw, err := synthesize(c, t.d)
	if err != nil {
		return nil, err
	}
	sp := c.reg.StartSpan("verilog.parse")
	mod, err := verilog.Parse(hw.VerilogText)
	sp.End()
	if err != nil {
		return nil, err
	}
	imem := ""
	for _, st := range t.d.Storage {
		if st.Kind == isdl.StInstructionMemory {
			imem = st.Name
		}
	}
	return &verilogRun{table1: t, mod: mod, imem: imem, ilsCycles: ilsCycles, runs: c.scale(16, 2)}, nil
}

func (r *verilogRun) run() *sample {
	s := newSample()
	// A model that never raises halted stops here instead of hanging.
	maxCycles := 4 * r.ilsCycles
	rates := make([]float64, r.runs)
	cycles := make([]uint64, r.runs)
	elab := make([]time.Duration, r.runs)
	errs := make([]error, r.runs)
	pool := &cosim.Pool{Workers: cosimWorkers, Obs: r.c.reg}
	s.begin()
	// Jobs record their own errors, so the pool's error is always nil.
	stats, _ := pool.Run("table1.verilog", r.runs, func(i int, l *cosim.Lane) error {
		start := time.Now()
		var loaded time.Time
		wl := cosim.Workload{Mod: r.mod, MaxCycles: maxCycles, Init: func(hw *verilog.Sim) error {
			err := loadImage(hw, r.imem, r.prog)
			loaded = time.Now()
			return err
		}}
		c0 := l.Cycles()
		hw, err := wl.Run(l)
		end := time.Now()
		if err != nil {
			errs[i] = err
			return nil
		}
		cycles[i] = l.Cycles() - c0
		rates[i] = float64(cycles[i]) / end.Sub(loaded).Seconds()
		elab[i] = loaded.Sub(start)
		errs[i] = r.check(hw)
		return nil
	})
	s.end()
	for i := range errs {
		s.Attempted++
		if errs[i] != nil {
			s.fail(fmt.Errorf("Verilog run: %w", errs[i]))
			continue
		}
		s.Obs = append(s.Obs, rates[i])
	}
	gap := float64(cycles[0]) - float64(r.ilsCycles)
	s.Counts["accuracy.ils_cycles"] = float64(r.ilsCycles)
	s.Counts["accuracy.verilog_cycles"] = float64(cycles[0])
	s.Counts["accuracy.cycle_gap"] = gap
	if r.c.reg != nil {
		var e time.Duration
		for _, d := range elab {
			e += d
		}
		r.c.add("verilog.elab_s", e.Seconds())
		if stats.Cycles > 0 {
			r.c.add("verilog.events_per_cycle", float64(stats.Events)/float64(stats.Cycles))
		}
		r.c.add("cosim.pool_speedup", stats.Speedup())
		r.c.add("accuracy.ils_cycles", float64(r.ilsCycles))
		r.c.add("accuracy.verilog_cycles", float64(cycles[0]))
		r.c.add("accuracy.cycle_gap", gap)
	}
	return s
}

// check verifies a finished hardware model: halted, and the output region
// (the storage's "s_" memory) equal to the reference.
func (r *verilogRun) check(hw *verilog.Sim) error {
	h, err := hw.Get("halted")
	if err != nil {
		return err
	}
	if h.IsZero() {
		return fmt.Errorf("did not halt within %d cycles", 4*r.ilsCycles)
	}
	got := make([]uint64, len(r.ref))
	for i := range got {
		v, err := hw.GetMem("s_"+r.out.Storage, r.out.Base+i)
		if err != nil {
			return err
		}
		got[i] = v.Uint64()
	}
	return checkRegion(r.out.Storage, r.out.Base, got, r.ref)
}

// loadImage writes a program image into a generated hardware model's
// memories, which HGEN names after the storage with an "s_" prefix.
func loadImage(hw *verilog.Sim, imem string, p *asm.Program) error {
	for i, w := range p.Words {
		if err := hw.SetMem("s_"+imem, p.Base+i, w); err != nil {
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

// --- zoo sweep -------------------------------------------------------------

type sweepMachine struct {
	name, src string
	random    bool
}

type sweepRun struct {
	c         config
	machines  []sweepMachine
	workloads []*suite.Workload
}

// unsupportedOnZoo lists the registry pairs the toolchain cannot target on
// the zoo (kernels needing a shift, xor or RF multiplier the machine lacks).
// They are swept but not counted as attempted; an Unsupported verdict on any
// other pair is a failure, so a change that loses a target shows.
var unsupportedOnZoo = map[string]bool{
	"crc/toy": true, "crc/risc32": true, "crc/spam2": true,
	"mulhw/risc32": true, "mulhw/spam": true, "mulhw/spam2": true,
}

func expectUnsupported(w *suite.Workload, m sweepMachine) bool {
	if m.random {
		for _, n := range suite.PortableNames() {
			if n == w.Name {
				return false
			}
		}
		return true
	}
	return unsupportedOnZoo[w.Name+"/"+m.name]
}

func setupSweep(c config) (runner, error) {
	r := &sweepRun{c: c, workloads: suite.All(suite.Filter{})}
	for _, e := range machines.Zoo() {
		r.machines = append(r.machines, sweepMachine{name: e.Name, src: e.Source})
	}
	rnd := rand.New(rand.NewSource(c.seed))
	for i := 1; i <= sweepRandom; i++ {
		m := randmachine.Generate(rnd, randmachine.Config{ForCompiler: true})
		r.machines = append(r.machines, sweepMachine{name: fmt.Sprintf("random%d", i), src: m.Source, random: true})
	}
	return r, nil
}

func (r *sweepRun) run() *sample {
	s := newSample()
	var verified, unsupported int
	var cycles uint64
	s.begin()
	for _, m := range r.machines {
		s.Attempted++
		d, err := parseISDL(r.c, m.src)
		if err == nil {
			_, err = synthesize(r.c, d)
		}
		if err != nil {
			s.fail(fmt.Errorf("%s: %w", m.name, err))
			continue
		}
		for _, w := range r.workloads {
			if w.Machine != "" && w.Machine != m.name {
				continue
			}
			prog, out, ref, err := prepare(r.c, w, d)
			var u *suite.Unsupported
			if errors.As(err, &u) && expectUnsupported(w, m) {
				unsupported++
				continue
			}
			s.Attempted++
			var n uint64
			if err == nil {
				n, err = simulate(r.c, d, prog, out, ref)
			}
			if err != nil {
				s.fail(fmt.Errorf("%s on %s: %w", w.Name, m.name, err))
				continue
			}
			verified++
			cycles += n
		}
	}
	s.Obs = []float64{1 / s.end()}
	s.Counts["suite.verified"] = float64(verified)
	s.Counts["suite.unsupported"] = float64(unsupported)
	s.Counts["xsim.cycles"] = float64(cycles)
	return s
}
