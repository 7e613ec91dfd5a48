package explore_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
)

// dominatesOrEquals reports a <= b on every objective — the acceptance
// relation between a frontier point and a scalar optimum.
func dominatesOrEquals(a, b *core.Evaluation) bool {
	return a.RuntimeUs <= b.RuntimeUs && a.AreaCells <= b.AreaCells && a.PowerMW <= b.PowerMW
}

// checkMutuallyNonDominated fails if any frontier point dominates another.
func checkMutuallyNonDominated(t *testing.T, frontier []explore.FrontierPoint) {
	t.Helper()
	for i, a := range frontier {
		for j, b := range frontier {
			if i == j {
				continue
			}
			strict := a.Eval.RuntimeUs < b.Eval.RuntimeUs || a.Eval.AreaCells < b.Eval.AreaCells || a.Eval.PowerMW < b.Eval.PowerMW
			if dominatesOrEquals(a.Eval, b.Eval) && strict {
				t.Errorf("frontier point %d (%s) dominates point %d (%s)", i, a.Action, j, b.Action)
			}
		}
	}
}

// sameFrontier asserts two runs produced bit-identical frontiers.
func sameFrontier(t *testing.T, name string, a, b []explore.FrontierPoint) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: frontier sizes differ: %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.Action != pb.Action || pa.Source != pb.Source || pa.Score != pb.Score ||
			pa.Dominated != pb.Dominated || strings.Join(pa.Binding, "|") != strings.Join(pb.Binding, "|") ||
			pa.Eval.RuntimeUs != pb.Eval.RuntimeUs || pa.Eval.AreaCells != pb.Eval.AreaCells ||
			pa.Eval.PowerMW != pb.Eval.PowerMW || pa.Eval.Cycles != pb.Eval.Cycles {
			t.Errorf("%s: frontier point %d differs:\n  %+v\nvs\n  %+v", name, i, pa, pb)
		}
	}
}

// TestParetoOnSPAM is the PR's acceptance criterion: on the SPAM workload
// the Pareto strategy finds at least 3 mutually non-dominated points,
// bit-identical across Workers ∈ {1, 8} (runs under -race in CI), and each
// per-weight scalar optimum found by hill climbing is dominated-or-equaled
// by some frontier point — one Pareto run answers every weighting.
func TestParetoOnSPAM(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	cache := core.NewStageCache()
	run := func(workers int, opts ...explore.Option) *explore.Result {
		t.Helper()
		opts = append([]explore.Option{
			explore.WithMaxIters(4),
			explore.WithWorkers(workers),
			explore.WithCache(cache),
		}, opts...)
		res, err := explore.New(machines.SPAMSource, spamKernel, opts...).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var events []explore.Event
	p1 := run(1, explore.WithPareto(0, explore.Constraints{}))
	p8 := run(8, explore.WithPareto(0, explore.Constraints{}),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }))
	sameSteps(t, "pareto workers 1 vs 8", p1, p8)
	sameFrontier(t, "pareto workers 1 vs 8", p1.Frontier, p8.Frontier)

	if len(p1.Frontier) < 3 {
		t.Fatalf("frontier has %d points, want >= 3", len(p1.Frontier))
	}
	checkMutuallyNonDominated(t, p1.Frontier)

	// Canonical curve order: ascending run time.
	for i := 1; i < len(p1.Frontier); i++ {
		if p1.Frontier[i].Eval.RuntimeUs < p1.Frontier[i-1].Eval.RuntimeUs {
			t.Errorf("frontier not in ascending-runtime order at %d", i)
		}
	}

	// Final is the scalar-best frontier member under the run's weights.
	bestScore := math.Inf(1)
	for _, p := range p1.Frontier {
		if p.Score < bestScore {
			bestScore = p.Score
		}
	}
	if got := scoreOf(p1.Final); got != bestScore {
		t.Errorf("Final score %.4f, want frontier best %.4f", got, bestScore)
	}

	// The run emits frontier events carrying the curve's scores.
	var sawFrontier bool
	for _, ev := range events {
		if ev.Kind == "frontier" && len(ev.Frontier) > 0 {
			sawFrontier = true
		}
	}
	if !sawFrontier {
		t.Error("no frontier events emitted")
	}

	// Every per-weight scalar optimum is dominated-or-equaled by a frontier
	// point: the curve subsumes the runs a user would have done per
	// weighting.
	for _, w := range []explore.Weights{
		{Runtime: 1, Area: 0.5, Power: 0.2}, // defaults
		{Runtime: 1},                        // pure performance
		{Area: 1},                           // pure silicon
		{Power: 1},                          // pure power
	} {
		hill := run(1, explore.WithWeights(w))
		covered := false
		for _, p := range p1.Frontier {
			if dominatesOrEquals(p.Eval, hill.Final) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("hill optimum under weights %+v (%s) not covered by any frontier point",
				w, hill.FinalSource[:40])
		}
	}
}

// TestParetoConstraintsOnSPAM: hard bounds exclude candidates from the
// frontier but still record them as scored-infeasible; every surviving
// frontier point respects the bounds.
func TestParetoConstraintsOnSPAM(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	cons := explore.Constraints{MaxArea: 275000, MaxPowerMW: 2.8}
	var events []explore.Event
	res, err := explore.New(machines.SPAMSource, spamKernel,
		explore.WithMaxIters(4),
		explore.WithPareto(0, cons),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frontier) == 0 {
		t.Fatal("empty frontier under satisfiable constraints")
	}
	checkMutuallyNonDominated(t, res.Frontier)
	for i, p := range res.Frontier {
		if v := cons.Violations(p.Eval); len(v) != 0 {
			t.Errorf("frontier point %d violates constraints %v: %s", i, v, p.Action)
		}
	}
	// Violating candidates appear as Steps with an Infeasible verdict,
	// never Accepted, and as infeasible events that still carry a score
	// (they evaluated fine — the constraint is what excluded them).
	var constrainedSteps int
	for _, s := range res.Steps {
		if strings.HasPrefix(s.Infeasible, "constraint:") {
			constrainedSteps++
			if s.Accepted {
				t.Errorf("constraint-violating step marked Accepted: %+v", s)
			}
		}
	}
	if constrainedSteps == 0 {
		t.Error("no constraint-violating candidates recorded; bounds too loose for the test")
	}
	var scoredInfeasible int
	for _, ev := range events {
		if ev.Kind == "infeasible" && ev.Scored {
			scoredInfeasible++
			if ev.Err == nil {
				t.Error("scored infeasible event has no Err naming the constraint")
			}
		}
	}
	if scoredInfeasible == 0 {
		t.Error("no scored infeasible events emitted for constraint violations")
	}
}

// TestParetoEmptyFeasibleSet: when every candidate (base included)
// violates the constraints, Run fails with a clear error — not an empty
// frontier the caller could mistake for a converged run.
func TestParetoEmptyFeasibleSet(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	_, err := explore.New(machines.SPAMSource, spamKernel,
		explore.WithMaxIters(1),
		explore.WithPareto(0, explore.Constraints{MaxArea: 1}),
	).Run()
	if err == nil {
		t.Fatal("Run succeeded with an unsatisfiable area bound")
	}
	if !strings.Contains(err.Error(), "no feasible candidate") {
		t.Errorf("error %q does not explain the empty feasible set", err)
	}
}

// TestInvalidWeightsRejectedAtRun: bad weight shapes fail before any
// evaluation happens, with an error naming the offending component.
func TestInvalidWeightsRejectedAtRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    explore.Weights
		want string
	}{
		{"NaN", explore.Weights{Runtime: math.NaN(), Area: 0.5}, "runtime weight"},
		{"negative", explore.Weights{Runtime: 1, Power: -0.2}, "power weight"},
		{"all-zero", explore.Weights{}, "all-zero"},
	} {
		_, err := explore.New(machines.SPAMSource, spamKernel,
			explore.WithWeights(tc.w)).Run()
		if err == nil {
			t.Errorf("%s weights accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s weights: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestRestartsWinnerSurvivesReallocation is the regression test for the
// stale-alias bug: Restarts.run kept a *RestartResult into
// combined.Restarts while still appending to it, so once append
// reallocated the backing array, the winner mark written through the
// pointer landed in the dead copy and the reported winner could desync
// from Final. Three restarts force at least one reallocation; exactly one
// result must carry Winner and it must match Final.
func TestRestartsWinnerSurvivesReallocation(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	res, err := explore.New(machines.SPAMSource, spamKernel,
		explore.WithMaxIters(1),
		explore.WithRestarts(2, 7),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Restarts) != 3 {
		t.Fatalf("got %d restart results, want 3", len(res.Restarts))
	}
	var winners []explore.RestartResult
	for _, rr := range res.Restarts {
		if rr.Winner {
			winners = append(winners, rr)
		}
	}
	if len(winners) != 1 {
		t.Fatalf("got %d Winner marks, want exactly 1 (%+v)", len(winners), res.Restarts)
	}
	w := winners[0]
	if w.Source != res.FinalSource || scoreOf(res.Final) != w.Score {
		t.Errorf("winner (restart %d, score %.4f) does not match Final (score %.4f)",
			w.Index, w.Score, scoreOf(res.Final))
	}
	for _, rr := range res.Restarts {
		if rr.Err == nil && rr.Score < w.Score {
			t.Errorf("restart %d score %.4f beats the marked winner %.4f", rr.Index, rr.Score, w.Score)
		}
	}
}
