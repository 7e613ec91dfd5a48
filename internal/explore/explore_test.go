package explore_test

import (
	"strings"
	"testing"

	"repro/internal/explore"
	"repro/internal/isdl"
	"repro/internal/machines"
)

// kernel is a small DSP-flavoured workload: vector scale-and-accumulate.
const kernel = `
var i, s;
array a[16] in DM at 0 = { 3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3 };
array b[16] in DM at 64;
s = 0;
for i = 0 to 15 {
  b[i] = a[i] + a[i];
  s = s + b[i];
}
`

func TestExploreSPAM2(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	res, err := explore.New(machines.SPAM2Source, kernel, explore.WithMaxIters(4)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Initial == nil || res.Final == nil {
		t.Fatal("missing evaluations")
	}
	w := explore.DefaultWeights()
	if res.Final.Score(w.Runtime, w.Area, w.Power) > res.Initial.Score(w.Runtime, w.Area, w.Power) {
		t.Fatalf("exploration made things worse: %.2f -> %.2f",
			res.Initial.Score(w.Runtime, w.Area, w.Power), res.Final.Score(w.Runtime, w.Area, w.Power))
	}
	if len(res.Steps) == 0 {
		t.Fatal("no candidates were evaluated")
	}
	// The winning candidate must be a valid, self-contained ISDL text.
	if _, err := isdl.Parse(res.FinalSource); err != nil {
		t.Fatalf("final source invalid: %v", err)
	}
	rep := res.Report()
	if !strings.Contains(rep, "initial:") || !strings.Contains(rep, "final:") {
		t.Fatalf("report: %q", rep)
	}
	// The kernel never multiplies or compares through cmp, so exploration
	// should find removable operations and improve the area term.
	if !(res.Final.AreaCells < res.Initial.AreaCells) {
		t.Errorf("expected area to shrink: %.0f -> %.0f", res.Initial.AreaCells, res.Final.AreaCells)
	}
}

func TestExploreInfeasibleBase(t *testing.T) {
	// The kernel reads an undeclared variable, so compilation fails.
	if _, err := explore.New(machines.SPAM2Source, "var x; x = y;").Run(); err == nil {
		t.Fatal("expected error for uncompilable kernel")
	}
}

func TestExploreLogging(t *testing.T) {
	if testing.Short() {
		t.Skip("exploration loop is slow")
	}
	var events []explore.Event
	_, err := explore.New(machines.SPAM2Source, "var x; x = 1;",
		explore.WithMaxIters(1),
		explore.WithLog(func(ev explore.Event) { events = append(events, ev) }),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("expected log events, got %d", len(events))
	}
	if events[0].Kind != "base" || events[0].Eval == nil || events[0].Iter != 0 {
		t.Errorf("first event should be the base evaluation, got %+v", events[0])
	}
	byKind := map[string]int{}
	for _, ev := range events {
		if ev.Line == "" {
			t.Errorf("event %q has no formatted line", ev.Kind)
		}
		byKind[ev.Kind]++
		switch ev.Kind {
		case "candidate":
			if ev.Eval == nil || ev.Action == "" || ev.Iter < 1 {
				t.Errorf("candidate event missing fields: %+v", ev)
			}
		case "infeasible":
			if ev.Err == nil || ev.Action == "" {
				t.Errorf("infeasible event missing fields: %+v", ev)
			}
		case "base", "cache", "accept", "stop":
		default:
			t.Errorf("unknown event kind %q", ev.Kind)
		}
	}
	if byKind["candidate"] == 0 {
		t.Error("no candidate events emitted")
	}
	if byKind["cache"] == 0 {
		t.Error("no cache statistics event emitted")
	}
}
