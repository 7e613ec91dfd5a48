package explore_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
	"repro/internal/obs"
)

// spamKernel leaves removable operations and retimable units on the table.
const spamKernel = "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n"

func scoreOf(e *core.Evaluation) float64 {
	w := explore.DefaultWeights()
	return e.Score(w.Runtime, w.Area, w.Power)
}

// sameSteps asserts two runs took the identical step sequence.
func sameSteps(t *testing.T, name string, a, b *explore.Result) {
	t.Helper()
	if a.FinalSource != b.FinalSource {
		t.Errorf("%s: FinalSource differs", name)
	}
	if len(a.Steps) != len(b.Steps) {
		t.Fatalf("%s: step counts differ: %d vs %d", name, len(a.Steps), len(b.Steps))
	}
	for i := range a.Steps {
		sa, sb := a.Steps[i], b.Steps[i]
		if sa.Iter != sb.Iter || sa.Restart != sb.Restart || sa.Action != sb.Action ||
			sa.Score != sb.Score || sa.Accepted != sb.Accepted {
			t.Errorf("%s: step %d differs: %+v vs %+v", name, i, sa, sb)
		}
	}
}

// TestBeamVsHillOnSPAM is the PR's acceptance criterion: on the SPAM
// workload with default weights, Beam{Width:4} reaches a final score no
// worse than the hill climb's, and both strategies are bit-identical
// across Workers ∈ {1, 8} (runs under -race in CI). One shared stage
// cache keeps the four runs cheap; it cannot change any outcome
// (TestExploreParallelDeterministic).
func TestBeamVsHillOnSPAM(t *testing.T) {
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
	hill1 := run(1)
	hill8 := run(8)
	sameSteps(t, "hill workers 1 vs 8", hill1, hill8)

	var events []explore.Event
	reg := obs.NewRegistry()
	beam1 := run(1, explore.WithBeam(4))
	beam8 := run(8, explore.WithBeam(4), explore.WithLog(func(ev explore.Event) { events = append(events, ev) }), explore.WithObs(reg))
	sameSteps(t, "beam workers 1 vs 8", beam1, beam8)

	hillScore, beamScore := scoreOf(hill1.Final), scoreOf(beam1.Final)
	if beamScore > hillScore {
		t.Errorf("beam-4 final %.4f worse than hill-climb final %.4f", beamScore, hillScore)
	}

	// The beam emits frontier events with the surviving scores (best
	// first) and publishes the frontier size gauge.
	var frontiers int
	for _, ev := range events {
		if ev.Kind != "frontier" {
			continue
		}
		frontiers++
		if len(ev.Frontier) == 0 || len(ev.Frontier) > 4 {
			t.Errorf("frontier event with %d scores", len(ev.Frontier))
		}
		for i := 1; i < len(ev.Frontier); i++ {
			if ev.Frontier[i] < ev.Frontier[i-1] {
				t.Errorf("frontier scores not sorted: %v", ev.Frontier)
			}
		}
		if ev.Line == "" {
			t.Error("frontier event has no formatted line")
		}
	}
	if frontiers == 0 {
		t.Error("no frontier events emitted")
	}
	if g := reg.Gauges()["explore.frontier.size"]; g < 1 || g > 4 {
		t.Errorf("explore.frontier.size gauge = %d, want 1..4", g)
	}
}

// TestRestartsSeededDeterministic: a Restarts run with a fixed seed is
// byte-identical across repeated runs and across worker counts — the
// perturbation stream depends only on the seed, and every inner run
// reduces in move order.
func TestRestartsSeededDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	cache := core.NewStageCache()
	run := func(workers int) (*explore.Result, []string) {
		t.Helper()
		var lines []string
		res, err := explore.New(machines.SPAMSource, spamKernel,
			explore.WithMaxIters(2),
			explore.WithWorkers(workers),
			explore.WithCache(cache),
			explore.WithRestarts(2, 7),
			explore.WithLog(func(ev explore.Event) {
				// Cache-statistics lines report the shared cache's
				// cumulative hit/miss counters, which move across the
				// three runs; every search decision line must be
				// byte-identical.
				if ev.Kind != "cache" {
					lines = append(lines, ev.Line)
				}
			}),
		).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res, lines
	}
	resA, linesA := run(1)
	resB, linesB := run(1)
	resC, linesC := run(8)
	sameSteps(t, "restarts run A vs B", resA, resB)
	sameSteps(t, "restarts workers 1 vs 8", resA, resC)
	if strings.Join(linesA, "\n") != strings.Join(linesB, "\n") {
		t.Error("restart logs differ between identical runs")
	}
	if strings.Join(linesA, "\n") != strings.Join(linesC, "\n") {
		t.Error("restart logs differ across worker counts")
	}

	// The combined result reports per-restart bests plus the global winner.
	if len(resA.Restarts) != 3 { // restart 0 (base) + 2 perturbed
		t.Fatalf("got %d restart results, want 3", len(resA.Restarts))
	}
	if resA.Restarts[0].Perturbation != "base" {
		t.Errorf("restart 0 perturbation = %q, want base", resA.Restarts[0].Perturbation)
	}
	bestScore := resA.Restarts[0].Score
	for i, rr := range resA.Restarts {
		if rr.Index != i {
			t.Errorf("restart %d has Index %d", i, rr.Index)
		}
		if rr.Err != nil {
			continue
		}
		if i > 0 && rr.Perturbation == "" {
			t.Errorf("restart %d has no perturbation description", i)
		}
		if rr.Score < bestScore {
			bestScore = rr.Score
		}
	}
	if got := scoreOf(resA.Final); got != bestScore {
		t.Errorf("global winner score %.4f, want best restart score %.4f", got, bestScore)
	}
	// Steps are stamped with their restart.
	seen := map[int]bool{}
	for _, s := range resA.Steps {
		seen[s.Restart] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Errorf("steps missing restart stamps: %v", seen)
	}
}

// TestEventScoredFlag is the regression test for the Score-0 ambiguity: an
// infeasible candidate's Event used to carry Score 0, indistinguishable in
// a JSON log from a genuinely zero-cost candidate. Scored now says whether
// Score holds a real objective value.
func TestEventScoredFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	var events []explore.Event
	_, err := explore.New(machines.SPAM2Source, "var x; x = 1; x = x + 1;",
		explore.WithMaxIters(1),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]int{}
	for _, ev := range events {
		byKind[ev.Kind]++
		switch ev.Kind {
		case "base", "candidate", "accept":
			if !ev.Scored {
				t.Errorf("%s event not marked Scored: %+v", ev.Kind, ev)
			}
		case "infeasible":
			if ev.Scored {
				t.Errorf("infeasible event marked Scored: %+v", ev)
			}
			if ev.Score != 0 {
				t.Errorf("infeasible event carries Score %.2f", ev.Score)
			}
		}
	}
	// The kernel needs the ALU: removing the op it compiles to must have
	// produced at least one infeasible candidate, and scoring the rest at
	// least one scored one.
	if byKind["infeasible"] == 0 {
		t.Error("expected at least one infeasible candidate")
	}
	if byKind["candidate"] == 0 {
		t.Error("expected at least one scored candidate")
	}
}

// TestStrategyNames pins the strategy identifiers used in logs and traces.
func TestStrategyNames(t *testing.T) {
	for _, tc := range []struct {
		s    explore.Strategy
		want string
	}{
		{explore.HillClimb{}, "hill"},
		{explore.Beam{Width: 4}, "beam-4"},
		{explore.Beam{}, "beam-4"}, // default width
		{explore.Pareto{}, "pareto"},
		{explore.Pareto{Width: 8}, "pareto-8"},
		{explore.Restarts{N: 3}, "restarts-3(hill)"},
		{explore.Restarts{N: 1, Inner: explore.Pareto{}}, "restarts-1(pareto)"},
		{explore.Restarts{N: 2, Inner: explore.Beam{Width: 8}}, "restarts-2(beam-8)"},
	} {
		if got := tc.s.Name(); got != tc.want {
			t.Errorf("Name() = %q, want %q", got, tc.want)
		}
	}
}
