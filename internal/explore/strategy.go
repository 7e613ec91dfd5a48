package explore

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"

	"repro/internal/core"
	"repro/internal/isdl"
	"repro/internal/obs"
)

// Strategy decides how the exploration loop walks the design space. The
// shipped strategies are HillClimb (accept the best improving neighbour,
// stop at the first local optimum), Beam (keep the top-K frontier alive
// each iteration), Pareto (keep the non-dominated (run time, area, power)
// frontier under optional hard constraints) and Restarts (run an inner
// strategy from seeded random perturbations of the base). All strategies
// evaluate candidates through
// the same move-order-deterministic worker pool and staged pipeline, so
// results are bit-identical across Workers settings.
//
// The interface is sealed: the run method takes the package's internal
// engine, so new strategies are added here, next to the determinism
// machinery they must respect.
type Strategy interface {
	// Name identifies the strategy in logs and results.
	Name() string
	run(e *engine) (*Result, error)
}

// Config is the exploration configuration behind explore.New. The zero
// value of every field is usable: New fills Base, Kernel and default
// Weights, and Run defaults the rest (HillClimb strategy, 16 iterations,
// NumCPU workers, a private per-run cache).
type Config struct {
	// Base is the starting ISDL description source.
	Base string
	// Kernel is the application in the compiler's kernel language.
	Kernel string
	// Weights fold an evaluation into the scalar objective.
	Weights Weights
	// MaxIters bounds each strategy's improvement loop (default 16).
	MaxIters int
	// Workers bounds concurrent candidate evaluations (default NumCPU).
	// Results are bit-identical to Workers=1 regardless of completion
	// order: candidates are reduced in move order.
	Workers int
	// Cache, when non-nil, is used instead of a fresh per-Run cache. It
	// counts its hits and misses into the registry it was built with
	// (core.NewStageCache), not into Obs.
	Cache *core.StageCache
	// Log receives one structured Event per exploration observation.
	Log func(Event)
	// Obs, when non-nil, collects exploration metrics and spans.
	Obs *obs.Registry
	// Strategy picks the search walk; nil means HillClimb{}.
	Strategy Strategy

	// restartN/restartSeed record WithRestarts independently of option
	// order: Run wraps whatever Strategy ends up configured.
	restartN    int
	restartSeed int64
}

// Option mutates a Config under construction.
type Option func(*Config)

// New builds an exploration Config over a base description and kernel.
// Without options it hill-climbs with DefaultWeights, NumCPU workers and
// a private stage cache:
//
//	res, err := explore.New(base, kernel, explore.WithBeam(4), explore.WithRestarts(3, 1)).Run()
func New(base, kernel string, opts ...Option) *Config {
	c := &Config{Base: base, Kernel: kernel, Weights: DefaultWeights()}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithWeights sets the objective weights (default DefaultWeights).
func WithWeights(w Weights) Option { return func(c *Config) { c.Weights = w } }

// WithMaxIters bounds each strategy's improvement loop (default 16).
func WithMaxIters(n int) Option { return func(c *Config) { c.MaxIters = n } }

// WithWorkers bounds concurrent candidate evaluations (0 = NumCPU).
func WithWorkers(n int) Option { return func(c *Config) { c.Workers = n } }

// WithCache shares an evaluation cache across runs (see Config.Cache).
func WithCache(cache *core.StageCache) Option { return func(c *Config) { c.Cache = cache } }

// WithLog sets the structured event sink.
func WithLog(fn func(Event)) Option { return func(c *Config) { c.Log = fn } }

// WithObs sets the metrics/span registry.
func WithObs(r *obs.Registry) Option { return func(c *Config) { c.Obs = r } }

// WithBeam selects beam search with the given frontier width.
func WithBeam(width int) Option { return func(c *Config) { c.Strategy = Beam{Width: width} } }

// WithPareto selects Pareto-frontier search under the given hard
// constraints (zero-value Constraints = unconstrained) with an optional
// frontier cap (0 = unbounded).
func WithPareto(width int, cons Constraints) Option {
	return func(c *Config) { c.Strategy = Pareto{Width: width, Constraints: cons} }
}

// WithRestarts adds n seeded random restarts around whichever strategy is
// configured (order relative to WithBeam/WithPareto does not matter):
// restart 0 runs from the unperturbed base, restarts 1..n from bases
// perturbed by seeded random mutations, and the Result reports each
// restart's best plus the global winner.
func WithRestarts(n int, seed int64) Option {
	return func(c *Config) { c.restartN, c.restartSeed = n, seed }
}

// strategy resolves the effective strategy: explicit > restart wrapping >
// hill climbing.
func (c *Config) strategy() Strategy {
	s := c.Strategy
	if s == nil {
		s = HillClimb{}
	}
	if c.restartN > 0 {
		if _, ok := s.(Restarts); !ok {
			s = Restarts{N: c.restartN, Seed: c.restartSeed, Inner: s}
		}
	}
	return s
}

// Run explores from the base description with the configured strategy.
func (c *Config) Run() (*Result, error) {
	if err := c.Weights.Validate(); err != nil {
		return nil, err
	}
	return c.strategy().run(newEngine(c))
}

// engine owns the per-run machinery every strategy shares: the staged
// pipeline with its cache, the bounded worker pool with move-order
// reduction, scoring, structured events and observability. Strategies
// differ only in which candidates they ask it to evaluate next.
type engine struct {
	cfg      *Config
	pipe     *core.Pipeline
	stages   *core.StageCache
	workers  int
	maxIters int
	// base is the effective starting description: Config.Base, except
	// under Restarts, which substitutes the perturbed source per restart.
	base string
	// restart is stamped on every Event and Step (0 = the base run).
	restart int
}

func newEngine(c *Config) *engine {
	maxIters := c.MaxIters
	if maxIters <= 0 {
		maxIters = 16
	}
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	stages := c.Cache
	if stages == nil {
		stages = core.NewStageCache(c.Obs, nil)
	}
	pipe := &core.Pipeline{Cache: stages, Obs: c.Obs}
	c.Obs.SetLaneName(0, "explore")
	for w := 0; w < workers; w++ {
		c.Obs.SetLaneName(1+w, fmt.Sprintf("worker %d", w))
	}
	return &engine{
		cfg:      c,
		pipe:     pipe,
		stages:   stages,
		workers:  workers,
		maxIters: maxIters,
		base:     c.Base,
	}
}

func (e *engine) obs() *obs.Registry { return e.cfg.Obs }

func (e *engine) emit(ev Event) {
	ev.Restart = e.restart
	if e.cfg.Log != nil {
		e.cfg.Log(ev)
	}
}

func (e *engine) score(ev *core.Evaluation) float64 {
	return ev.Score(e.cfg.Weights.Runtime, e.cfg.Weights.Area, e.cfg.Weights.Power)
}

// scoreChecked folds an evaluation into the scalar objective, rejecting
// non-finite figures with an explicit verdict. A NaN score compares
// false against every bound — `s < best` silently rejects forever and
// sort.SliceStable orders unpredictably — so a candidate whose model
// produced NaN/Inf run time, area, power or score is treated as
// infeasible instead of being allowed to poison the accept and frontier
// paths.
func (e *engine) scoreChecked(ev *core.Evaluation) (float64, error) {
	for _, c := range []struct {
		name string
		v    float64
	}{{"run time", ev.RuntimeUs}, {"area", ev.AreaCells}, {"power", ev.PowerMW}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return 0, fmt.Errorf("non-finite %s %v in evaluation", c.name, c.v)
		}
	}
	s := e.score(ev)
	if math.IsNaN(s) || math.IsInf(s, 0) {
		return 0, fmt.Errorf("non-finite score %v", s)
	}
	return s, nil
}

// evalBase scores the starting candidate, parsed from its text, and emits
// the "base" event.
func (e *engine) evalBase() (*core.Evaluation, float64, error) {
	sp := e.obs().StartSpanLane("candidate", 1)
	sp.SetArg("action", "base")
	e.obs().Counter("explore.candidates").Inc()
	eval, _, err := e.pipe.EvaluateKernel(e.base, e.cfg.Kernel, "kernel", sp)
	sp.End()
	if err != nil {
		return nil, 0, fmt.Errorf("explore: base candidate: %w", err)
	}
	s, err := e.scoreChecked(eval)
	if err != nil {
		return nil, 0, fmt.Errorf("explore: base candidate: %w", err)
	}
	e.setBestScore(s)
	e.emit(Event{Kind: "base", Score: s, Scored: true, Eval: eval,
		Line: fmt.Sprintf("base: score %.2f (%s)", s, oneLine(eval))})
	return eval, s, nil
}

// setBestScore publishes the best score so far for the live dashboard.
// Gauges are integers, so the score travels in fixed-point milli-units
// (the dashboard divides the .milli suffix back out).
func (e *engine) setBestScore(s float64) {
	e.obs().Gauge("explore.best.score.milli").Set(int64(s * 1000))
}

// emitCacheStats publishes the per-iteration cache line.
func (e *engine) emitCacheStats(iter int) {
	e.emit(Event{Kind: "cache", Iter: iter,
		Line: fmt.Sprintf("iter %d: cache %s", iter, e.stages.StatsLine())})
}

// source is a description an iteration expands: its text, and the action
// that produced it ("base" for the starting description), which names it
// in errors.
type source struct {
	action string
	src    string
}

// outcome is one candidate's pipeline result.
type outcome struct {
	eval *core.Evaluation
	err  error
	// invalid marks a move whose edit left no valid description: the
	// mutation produced no description at all, so it is not a candidate.
	invalid bool
}

// job is one move on its way to a worker, with the description of the
// source it edits. Only jobs hold that description, so it stays alive
// only while its moves are in flight.
type job struct {
	parent *isdl.Description
	mv     move
	out    *outcome
}

// expand generates the neighbours of each source and scores them on the
// bounded worker pool, in one loop: a source's moves go to the workers as
// soon as neighbours has finished with (and restored) its description, and
// the next source is expanded while they run. The workers only read that
// description, so it must not change until its moves are done; each source
// is parsed into a description of its own. moves are in source order then
// move order, and outs[i] always corresponds to moves[i]: completion order
// never matters. With a non-nil seen set it drops every text already
// queued and records the rest.
//
// The coordinator's serial work, up to handing the last source's moves on,
// is an "expand" child of the iteration span, and each candidate a span on
// its worker's lane, parented to the iteration span, so the trace shows
// them overlap. Deriving a move's description is its validity check: a
// *core.ParseError marks the outcome invalid and counts under
// explore.moves.invalid instead of explore.candidates. A source whose
// every move is invalid is an error: none of its neighbours could be
// judged, which a sound description and sound edits never produce.
func (e *engine) expand(iterSpan *obs.Span, srcs []source, seen map[string]bool) ([]move, []outcome, error) {
	sp := iterSpan.Child("expand")
	next := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for j := range next {
				e.evaluateMove(j, lane, iterSpan)
			}
		}(1 + w)
	}
	// batches hands one source's jobs at a time to the feeder, which passes
	// them on to the workers, so the coordinator expands the next source
	// meanwhile. Only the sources with moves in flight and the one being
	// expanded keep a description alive.
	batches := make(chan []job)
	go func() {
		for b := range batches {
			for _, j := range b {
				next <- j
			}
		}
		close(next)
	}()

	var moves []move
	var outs []*outcome
	// whole holds the moves [from, to) of each source that queued every
	// move it has, so that all of them are judged here.
	type sourceMoves struct{ src, from, to int }
	var whole []sourceMoves
	var err error
	for i, s := range srcs {
		var d *isdl.Description
		if d, err = isdl.Parse(s.src); err != nil {
			err = fmt.Errorf("explore: expand %s: %w", s.action, err)
			break
		}
		from, dropped := len(moves), false
		var batch []job
		for _, mv := range neighbours(d) {
			if seen != nil {
				if seen[mv.src] {
					dropped = true
					continue
				}
				seen[mv.src] = true
			}
			o := new(outcome)
			moves, outs = append(moves, mv), append(outs, o)
			batch = append(batch, job{parent: d, mv: mv, out: o})
		}
		if !dropped && len(batch) > 0 {
			whole = append(whole, sourceMoves{i, from, len(moves)})
		}
		batches <- batch
	}
	close(batches)
	sp.SetArg("moves", strconv.Itoa(len(moves)))
	sp.End()
	wg.Wait()
	if err != nil {
		return nil, nil, err
	}

	res := make([]outcome, len(outs))
	for i, o := range outs {
		res[i] = *o
	}
	for _, w := range whole {
		if !slices.ContainsFunc(res[w.from:w.to], func(o outcome) bool { return !o.invalid }) {
			return nil, nil, fmt.Errorf("explore: every move of %s (%d) is invalid; the first, %s: %w",
				srcs[w.src].action, w.to-w.from, moves[w.from].action, res[w.from].err)
		}
	}
	return moves, res, nil
}

// evaluateMove scores one move on a worker: it derives the move's
// description from its source's (the pipeline's build, keyed by the move's
// text) and runs the pipeline under a candidate span on the worker's lane.
func (e *engine) evaluateMove(j job, lane int, iterSpan *obs.Span) {
	sp := iterSpan.ChildLane("candidate", lane)
	sp.SetArg("action", j.mv.action)
	o := j.out
	o.eval, _, o.err = e.pipe.EvaluateBuild(func() (*isdl.Description, string, error) {
		d, err := isdl.Derive(j.parent, func(c *isdl.Description) { j.mv.edit(c) })
		return d, j.mv.src, err
	}, e.cfg.Kernel, "kernel", sp)
	var perr *core.ParseError
	o.invalid = errors.As(o.err, &perr)
	if o.invalid {
		e.obs().Counter("explore.moves.invalid").Inc()
	} else {
		e.obs().Counter("explore.candidates").Inc()
	}
	if o.err != nil {
		sp.SetArg("err", o.err.Error())
	}
	sp.End()
}

// scoreOutcome is every strategy's first step in reducing one outcome. It
// returns the candidate's score, or ok=false for an outcome the strategy
// must skip: an invalid move (silently, as if never generated), or a
// candidate the pipeline rejected or that scored non-finite (with an
// "infeasible" event). A NaN/Inf score would compare false against every
// bound and make sorts unpredictable, so its verdict is made explicit.
func (e *engine) scoreOutcome(iter int, mv move, o outcome) (s float64, ok bool) {
	if o.invalid {
		return 0, false
	}
	eval, err := o.eval, o.err
	if err == nil {
		s, err = e.scoreChecked(eval)
	}
	if err != nil {
		e.obs().Counter("explore.moves.infeasible").Inc()
		e.emit(Event{Kind: "infeasible", Iter: iter, Action: mv.action, Eval: eval, Err: err,
			Line: fmt.Sprintf("iter %d: %-28s infeasible: %v", iter, mv.action, err)})
		return 0, false
	}
	return s, true
}

// record reduces one scored candidate the same way under every strategy:
// it counts the move as accepted or rejected, appends its Step and emits
// its "candidate" event.
func (e *engine) record(res *Result, iter int, mv move, cand *core.Evaluation, s float64, accepted bool) {
	if accepted {
		e.obs().Counter("explore.moves.accepted").Inc()
	} else {
		e.obs().Counter("explore.moves.rejected").Inc()
	}
	res.Steps = append(res.Steps, Step{Iter: iter, Restart: e.restart, Action: mv.action, Eval: cand, Score: s, Accepted: accepted})
	e.emit(Event{Kind: "candidate", Iter: iter, Action: mv.action, Score: s, Scored: true, Accepted: accepted, Eval: cand,
		Line: fmt.Sprintf("iter %d: %-28s score %.2f (%s)", iter, mv.action, s, oneLine(cand))})
}

// HillClimb is the classic strategy: evaluate every neighbour of the
// current candidate, accept the best improving move, stop at the first
// iteration with no improvement (paper §1, Figure 1).
type HillClimb struct{}

// Name implements Strategy.
func (HillClimb) Name() string { return "hill" }

func (HillClimb) run(e *engine) (*Result, error) {
	curEval, curScore, err := e.evalBase()
	if err != nil {
		return nil, err
	}
	cur := source{action: "base", src: e.base}
	res := &Result{Initial: curEval}

	for iter := 1; iter <= e.maxIters; iter++ {
		iterSpan := e.obs().StartSpan("iteration")
		iterSpan.SetArg("iter", strconv.Itoa(iter))
		moves, outs, err := e.expand(iterSpan, []source{cur}, nil)
		if err != nil {
			iterSpan.End()
			return nil, err
		}
		bestScore := curScore
		var bestSrc, bestAction string
		var bestEval *core.Evaluation
		// Reduce in move order: acceptance and tie-breaking are identical
		// to the sequential loop no matter how the workers interleaved.
		for i, mv := range moves {
			s, ok := e.scoreOutcome(iter, mv, outs[i])
			if !ok {
				continue
			}
			cand := outs[i].eval
			accepted := s < bestScore
			e.record(res, iter, mv, cand, s, accepted)
			if accepted {
				bestScore, bestSrc, bestAction, bestEval = s, mv.src, mv.action, cand
			}
		}
		e.emitCacheStats(iter)
		if bestEval == nil {
			e.emit(Event{Kind: "stop", Iter: iter,
				Line: fmt.Sprintf("iter %d: no improving move; stopping", iter)})
			iterSpan.End()
			break
		}
		e.emit(Event{Kind: "accept", Iter: iter, Action: bestAction, Score: bestScore, Scored: true, Accepted: true, Eval: bestEval,
			Line: fmt.Sprintf("iter %d: ACCEPT %s (score %.2f -> %.2f)", iter, bestAction, curScore, bestScore)})
		iterSpan.SetArg("accepted", bestAction)
		iterSpan.End()
		e.setBestScore(bestScore)
		cur, curScore, curEval = source{action: bestAction, src: bestSrc}, bestScore, bestEval
	}
	res.Final = curEval
	res.FinalSource = cur.src
	return res, nil
}
