package explore

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"

	"repro/internal/core"
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
	// NoCache disables evaluation memoization (see docs/PIPELINE.md).
	NoCache bool
	// Cache, when non-nil, is used instead of a fresh per-Run cache.
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

// WithoutCache disables evaluation memoization.
func WithoutCache() Option { return func(c *Config) { c.NoCache = true } }

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
	if stages == nil && !c.NoCache {
		stages = core.NewStageCache()
	}
	if stages != nil {
		stages.Bind(c.Obs) // no-op when Obs is nil or already bound
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

// evaluate runs the staged pipeline (core.Pipeline) for one candidate:
// parse → compile kernel → assemble → simulate → synthesize → combine,
// with every post-parse stage memoized per content-addressed key when the
// pipeline has a cache (see docs/PIPELINE.md). Stage spans of executed
// stages become children of sp in the trace.
func (e *engine) evaluate(src string, sp *obs.Span) (*core.Evaluation, error) {
	return e.pipe.EvaluateKernelTraced(src, e.cfg.Kernel, "kernel", sp)
}

// evalBase scores the starting candidate and emits the "base" event.
func (e *engine) evalBase() (*core.Evaluation, float64, error) {
	sp := e.obs().StartSpanLane("candidate", 1)
	sp.SetArg("action", "base")
	e.obs().Counter("explore.candidates").Inc()
	eval, err := e.evaluate(e.base, sp)
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
	if e.stages == nil {
		return
	}
	e.emit(Event{Kind: "cache", Iter: iter,
		Line: fmt.Sprintf("iter %d: cache %s", iter, e.stages.StatsLine())})
}

// expand generates the neighbours of each source, in source order then
// move order, under an "expand" child of the iteration span, so the trace
// shows the coordinator's serial time next to the worker lanes. With a
// non-nil seen set it drops every text already queued and records the
// rest.
func (e *engine) expand(iterSpan *obs.Span, srcs []string, seen map[string]bool) ([]move, error) {
	sp := iterSpan.Child("expand")
	defer sp.End()
	var moves []move
	for _, src := range srcs {
		ns, err := neighbours(src)
		if err != nil {
			return nil, err
		}
		for _, mv := range ns {
			if seen != nil {
				if seen[mv.src] { // mv.src is canonical (isdl.Format output)
					continue
				}
				seen[mv.src] = true
			}
			moves = append(moves, mv)
		}
	}
	sp.SetArg("moves", strconv.Itoa(len(moves)))
	return moves, nil
}

// outcome is one candidate's pipeline result.
type outcome struct {
	eval *core.Evaluation
	err  error
	// invalid marks a move whose text failed the pipeline's parse: the
	// mutation produced no description at all, so it is not a candidate.
	invalid bool
}

// evaluateAll scores every move, fanning out over the bounded worker pool.
// outs[i] always corresponds to moves[i]; completion order never matters.
// Each scored candidate gets a span on its worker's lane, parented to the
// iteration span, so the trace shows the fan-out side by side. The
// pipeline's parse is the moves' validity check: a *core.ParseError marks
// the outcome invalid and counts under explore.moves.invalid instead of
// explore.candidates.
func (e *engine) evaluateAll(moves []move, iterSpan *obs.Span) []outcome {
	outs := make([]outcome, len(moves))
	workers := e.workers
	if workers > len(moves) {
		workers = len(moves)
	}
	scoreOne := func(i, lane int) {
		sp := iterSpan.ChildLane("candidate", lane)
		sp.SetArg("action", moves[i].action)
		o := &outs[i]
		o.eval, o.err = e.evaluate(moves[i].src, sp)
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
	if workers <= 1 {
		for i := range moves {
			scoreOne(i, 1)
		}
		return outs
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for i := range next {
				scoreOne(i, lane)
			}
		}(1 + w)
	}
	for i := range moves {
		next <- i
	}
	close(next)
	wg.Wait()
	return outs
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
	curSrc := e.base
	res := &Result{Initial: curEval}

	for iter := 1; iter <= e.maxIters; iter++ {
		iterSpan := e.obs().StartSpan("iteration")
		iterSpan.SetArg("iter", strconv.Itoa(iter))
		moves, err := e.expand(iterSpan, []string{curSrc}, nil)
		if err != nil {
			iterSpan.End()
			return nil, err
		}
		outs := e.evaluateAll(moves, iterSpan)
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
			if accepted {
				e.obs().Counter("explore.moves.accepted").Inc()
			} else {
				e.obs().Counter("explore.moves.rejected").Inc()
			}
			res.Steps = append(res.Steps, Step{Iter: iter, Restart: e.restart, Action: mv.action, Eval: cand, Score: s, Accepted: accepted})
			e.emit(Event{Kind: "candidate", Iter: iter, Action: mv.action, Score: s, Scored: true, Accepted: accepted, Eval: cand,
				Line: fmt.Sprintf("iter %d: %-28s score %.2f (%s)", iter, mv.action, s, oneLine(cand))})
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
		curSrc, curScore, curEval = bestSrc, bestScore, bestEval
	}
	res.Final = curEval
	res.FinalSource = curSrc
	return res, nil
}
