package explore

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/core"
)

// Constraints are hard feasibility bounds on the objective space: "area
// ≤ MaxArea, power ≤ MaxPowerMW, minimize the rest". A zero bound leaves
// that axis unconstrained. Candidates violating any active bound are
// still scored and recorded (as infeasible-by-constraint events and
// Steps), but never enter the Pareto frontier.
type Constraints struct {
	// MaxRuntimeUs bounds the run time in microseconds (0 = none).
	MaxRuntimeUs float64
	// MaxArea bounds the die size in grid cells (0 = none).
	MaxArea float64
	// MaxPowerMW bounds the power in milliwatts (0 = none).
	MaxPowerMW float64
}

// bindingFraction is the budget share above which a constraint counts as
// binding for a frontier point (FrontierPoint.Binding).
const bindingFraction = 0.95

// Active reports whether any bound is set.
func (c Constraints) Active() bool {
	return c.MaxRuntimeUs > 0 || c.MaxArea > 0 || c.MaxPowerMW > 0
}

// Validate rejects bounds no candidate could be compared against: NaN,
// infinities and negative values.
func (c Constraints) Validate() error {
	for _, b := range []struct {
		name string
		v    float64
	}{{"runtime", c.MaxRuntimeUs}, {"area", c.MaxArea}, {"power", c.MaxPowerMW}} {
		if math.IsNaN(b.v) || math.IsInf(b.v, 0) || b.v < 0 {
			return fmt.Errorf("explore: invalid %s constraint %v (want a finite bound >= 0; 0 disables it)", b.name, b.v)
		}
	}
	return nil
}

// Violations returns the names of the constraints e violates, in the
// fixed order runtime, area, power (empty = feasible). A candidate
// exactly at a bound is feasible: the constraint is "≤".
func (c Constraints) Violations(e *core.Evaluation) []string {
	var out []string
	if c.MaxRuntimeUs > 0 && e.RuntimeUs > c.MaxRuntimeUs {
		out = append(out, "runtime")
	}
	if c.MaxArea > 0 && e.AreaCells > c.MaxArea {
		out = append(out, "area")
	}
	if c.MaxPowerMW > 0 && e.PowerMW > c.MaxPowerMW {
		out = append(out, "power")
	}
	return out
}

// Binding returns the constraints e consumes at least bindingFraction of
// — the budgets that effectively pin a frontier point in place.
func (c Constraints) Binding(e *core.Evaluation) []string {
	var out []string
	if c.MaxRuntimeUs > 0 && e.RuntimeUs >= bindingFraction*c.MaxRuntimeUs {
		out = append(out, "runtime")
	}
	if c.MaxArea > 0 && e.AreaCells >= bindingFraction*c.MaxArea {
		out = append(out, "area")
	}
	if c.MaxPowerMW > 0 && e.PowerMW >= bindingFraction*c.MaxPowerMW {
		out = append(out, "power")
	}
	return out
}

// String renders the active bounds ("area <= 9000, power <= 50").
func (c Constraints) String() string {
	var parts []string
	if c.MaxRuntimeUs > 0 {
		parts = append(parts, fmt.Sprintf("runtime <= %g us", c.MaxRuntimeUs))
	}
	if c.MaxArea > 0 {
		parts = append(parts, fmt.Sprintf("area <= %g cells", c.MaxArea))
	}
	if c.MaxPowerMW > 0 {
		parts = append(parts, fmt.Sprintf("power <= %g mW", c.MaxPowerMW))
	}
	if len(parts) == 0 {
		return "unconstrained"
	}
	return strings.Join(parts, ", ")
}

// constraintErr is the Err attached to an infeasible-by-constraint event.
func constraintErr(violated []string) error {
	return fmt.Errorf("violates constraint %s", strings.Join(violated, ", "))
}

// Pareto keeps the whole (run time, area, power) trade-off instead of
// collapsing it into one weighted scalar: per iteration it evaluates the
// union of every frontier member's neighbours through the deterministic
// worker pool — exactly like Beam, including the canonical-ISDL seen-set
// — but the survivors are the *non-dominated* set over the three
// objectives rather than the top-K by score. One run answers every
// weighting a user could ask for: any positive-weight scalar optimum over
// the evaluated space is on (or dominated-or-equaled by) the frontier.
//
// Hard constraints (Constraints) make candidates over an area or power
// budget infeasible: they are scored and recorded but never enter the
// frontier, and a run whose every candidate violates the bounds fails
// with a clear error instead of returning an empty frontier.
//
// Determinism: candidates are reduced in move order, equal points
// collapse to the earliest, the frontier is kept in canonical curve order
// (runtime, area, power, insertion sequence), and the optional Width cap
// truncates by NSGA-II crowding distance with the insertion sequence as
// the final tie-break — so results are bit-identical across Workers
// settings.
type Pareto struct {
	// Width caps the frontier via crowding-distance truncation
	// (0 = unbounded, the default: exploration spaces here are small).
	Width int
	// Constraints are the hard feasibility bounds (zero value = none).
	Constraints Constraints
}

// Name implements Strategy.
func (p Pareto) Name() string {
	if p.Width > 0 {
		return fmt.Sprintf("pareto-%d", p.Width)
	}
	return "pareto"
}

func (p Pareto) run(e *engine) (*Result, error) {
	if err := p.Constraints.Validate(); err != nil {
		return nil, err
	}
	baseEval, baseScore, err := e.evalBase()
	if err != nil {
		return nil, err
	}
	baseKey, err := canonical(e.base)
	if err != nil {
		return nil, err
	}
	res := &Result{Initial: baseEval}
	seen := map[string]bool{baseKey: true}
	var frontier []paretoCand
	// feasible collects every feasible scored evaluation, for the final
	// dominated-count per frontier point.
	var feasible []*core.Evaluation
	evaluated, violated := 1, 0
	seq := 0

	if v := p.Constraints.Violations(baseEval); len(v) > 0 {
		violated++
		e.obs().Counter("explore.moves.constrained").Inc()
		e.emit(Event{Kind: "infeasible", Iter: 0, Action: "base", Score: baseScore, Scored: true, Eval: baseEval, Err: constraintErr(v),
			Line: fmt.Sprintf("base: score %.2f but %v (%s)", baseScore, constraintErr(v), oneLine(baseEval))})
	} else {
		frontier = []paretoCand{{action: "base", src: e.base, eval: baseEval, score: baseScore, seq: seq}}
		feasible = append(feasible, baseEval)
		seq++
	}

	for iter := 1; iter <= e.maxIters; iter++ {
		iterSpan := e.obs().StartSpan("iteration")
		iterSpan.SetArg("iter", strconv.Itoa(iter))
		iterSpan.SetArg("frontier", strconv.Itoa(len(frontier)))
		// Expand the frontier; when everything so far violates the
		// constraints there is no frontier yet, so probe from the base —
		// its neighbourhood is the only ground not yet ruled out.
		srcs := make([]source, 0, len(frontier))
		for _, f := range frontier {
			srcs = append(srcs, source{action: f.action, src: f.src})
		}
		if len(srcs) == 0 {
			srcs = []source{{action: "base", src: e.base}}
		}
		moves, outs, err := e.expand(iterSpan, srcs, seen)
		if err != nil {
			iterSpan.End()
			return nil, err
		}
		if len(moves) == 0 {
			e.emit(Event{Kind: "stop", Iter: iter,
				Line: fmt.Sprintf("iter %d: no unseen neighbour; stopping", iter)})
			iterSpan.End()
			break
		}
		entered := map[string]bool{} // this iteration's srcs that entered
		// Reduce in move order, exactly like the other strategies.
		for i, mv := range moves {
			if outs[i].err == nil {
				evaluated++
			}
			s, ok := e.scoreOutcome(iter, mv, outs[i])
			if !ok {
				continue
			}
			cand := outs[i].eval
			if v := p.Constraints.Violations(cand); len(v) > 0 {
				violated++
				e.obs().Counter("explore.moves.constrained").Inc()
				verr := constraintErr(v)
				res.Steps = append(res.Steps, Step{Iter: iter, Restart: e.restart, Action: mv.action, Eval: cand, Score: s,
					Infeasible: "constraint: " + strings.Join(v, ", ")})
				e.emit(Event{Kind: "infeasible", Iter: iter, Action: mv.action, Score: s, Scored: true, Eval: cand, Err: verr,
					Line: fmt.Sprintf("iter %d: %-28s score %.2f but %v", iter, mv.action, s, verr)})
				continue
			}
			feasible = append(feasible, cand)
			var accepted bool
			frontier, accepted = insertNonDominated(frontier, paretoCand{
				action: mv.action, src: mv.src, eval: cand, score: s, seq: seq,
			})
			seq++
			if accepted {
				entered[mv.src] = true
			}
			e.record(res, iter, mv, cand, s, accepted)
		}
		e.emitCacheStats(iter)
		frontier = truncateCrowding(frontier, p.Width)
		sortFrontier(frontier)
		fresh := 0
		scores := make([]float64, len(frontier))
		labels := make([]string, len(frontier))
		for i, f := range frontier {
			scores[i] = f.score
			labels[i] = fmt.Sprintf("%.2f", f.score)
			if entered[f.src] {
				fresh++
			}
		}
		e.obs().Gauge("explore.frontier.size").Set(int64(len(frontier)))
		if len(frontier) > 0 {
			e.setBestScore(minScore(frontier))
		}
		e.emit(Event{Kind: "frontier", Iter: iter, Frontier: scores,
			Line: fmt.Sprintf("iter %d: frontier %d non-dominated [%s] (%d fresh)", iter, len(frontier), strings.Join(labels, " "), fresh)})
		iterSpan.SetArg("fresh", strconv.Itoa(fresh))
		iterSpan.End()
		if fresh == 0 && len(frontier) > 0 {
			e.emit(Event{Kind: "stop", Iter: iter,
				Line: fmt.Sprintf("iter %d: frontier converged; stopping", iter)})
			break
		}
	}

	if len(frontier) == 0 {
		return nil, fmt.Errorf("explore: pareto: no feasible candidate under %s (%d candidates evaluated, %d violated the constraints)",
			p.Constraints, evaluated, violated)
	}
	res.Frontier = make([]FrontierPoint, len(frontier))
	bestIdx := 0
	for i, f := range frontier {
		dominated := 0
		for _, ev := range feasible {
			if dominates(f.eval, ev) {
				dominated++
			}
		}
		res.Frontier[i] = FrontierPoint{
			Action:    f.action,
			Source:    f.src,
			Eval:      f.eval,
			Score:     f.score,
			Dominated: dominated,
			Binding:   p.Constraints.Binding(f.eval),
		}
		if f.score < frontier[bestIdx].score {
			bestIdx = i
		}
	}
	// Final/FinalSource pick the scalar-best frontier member under the
	// run's Weights, so Pareto composes with everything that consumes a
	// single winner (Restarts, -o, the report footer); ties go to the
	// earlier point on the curve.
	res.Final = frontier[bestIdx].eval
	res.FinalSource = frontier[bestIdx].src
	e.emit(Event{Kind: "stop", Iter: 0, Score: frontier[bestIdx].score, Scored: true,
		Line: fmt.Sprintf("pareto done: %d non-dominated points, scalar best %.2f", len(frontier), frontier[bestIdx].score)})
	return res, nil
}

func minScore(frontier []paretoCand) float64 {
	min := frontier[0].score
	for _, f := range frontier[1:] {
		if f.score < min {
			min = f.score
		}
	}
	return min
}
