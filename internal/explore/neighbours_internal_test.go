package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/randmachine"
)

// neighboursReparse is the reference move generator: it parses src afresh
// for every move, mutates that private copy, and keeps the formatted text
// only if it parses again.
func neighboursReparse(src string) ([]move, error) {
	base, err := isdl.Parse(src)
	if err != nil {
		return nil, err
	}
	var out []move
	add := func(action string, mutate func(d *isdl.Description)) {
		d, err := isdl.Parse(src)
		if err != nil {
			return
		}
		mutate(d)
		text := isdl.Format(d)
		if _, err := isdl.Parse(text); err != nil {
			return
		}
		out = append(out, move{action: action, src: text})
	}
	for fi := range base.Fields {
		for oi := range base.Fields[fi].Ops {
			op := base.Fields[fi].Ops[oi]
			if op.Name == "nop" || len(base.Fields[fi].Ops) == 1 {
				continue
			}
			fi, oi := fi, oi
			add("remove "+op.QualName(), func(d *isdl.Description) {
				f := d.Fields[fi]
				op := f.Ops[oi]
				delete(f.ByName, op.Name)
				f.Ops = append(f.Ops[:oi], f.Ops[oi+1:]...)
				kept := d.Constraints[:0]
				for _, c := range d.Constraints {
					if !mentionsOp(c.Expr, f.Name, op.Name) {
						kept = append(kept, c)
					}
				}
				d.Constraints = kept
			})
		}
	}
	for _, st := range base.Storage {
		if st.Kind == isdl.StDataMemory && st.Depth >= 64 {
			name := st.Name
			add(fmt.Sprintf("halve %s depth", name), func(d *isdl.Description) {
				d.StorageByName[name].Depth /= 2
			})
		}
	}
	for fi := range base.Fields {
		for oi := range base.Fields[fi].Ops {
			op := base.Fields[fi].Ops[oi]
			if op.Timing.Latency <= 1 {
				continue
			}
			fi, oi := fi, oi
			add("shorten "+op.QualName()+" pipeline", func(d *isdl.Description) {
				o := d.Fields[fi].Ops[oi]
				o.Timing.Latency--
				if o.Costs.Stall > 0 {
					o.Costs.Stall--
				}
			})
			add("deepen "+op.QualName()+" pipeline", func(d *isdl.Description) {
				o := d.Fields[fi].Ops[oi]
				o.Timing.Latency++
				o.Costs.Stall++
			})
		}
	}
	return out, nil
}

// TestNeighboursMatchReparse: generating every move from one shared parse
// must yield exactly the reference generator's moves — same actions, same
// texts, same order — once texts that no longer parse (which the worker
// pool drops) are filtered out. The moves share one description, so
// equality also proves that every undo restores it exactly.
func TestNeighboursMatchReparse(t *testing.T) {
	var srcs []string
	for _, z := range machines.Zoo() {
		srcs = append(srcs, z.Source)
	}
	n := 200
	if testing.Short() {
		n = 20
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		srcs = append(srcs, randmachine.Generate(rnd, randmachine.Config{ForCompiler: i%2 == 1}).Source)
	}
	total := 0
	for i, src := range srcs {
		got, err := neighbours(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		want, err := neighboursReparse(src)
		if err != nil {
			t.Fatalf("source %d: reference: %v", i, err)
		}
		valid := got[:0]
		for _, mv := range got {
			if _, err := isdl.Parse(mv.src); err == nil {
				valid = append(valid, mv)
			}
		}
		if len(valid) != len(want) {
			t.Fatalf("source %d: %d parseable moves, reference has %d", i, len(valid), len(want))
		}
		for j := range want {
			if valid[j].action != want[j].action {
				t.Fatalf("source %d move %d: action %q, reference %q", i, j, valid[j].action, want[j].action)
			}
			if valid[j].src != want[j].src {
				t.Fatalf("source %d move %d (%s): text differs from the reference", i, j, want[j].action)
			}
		}
		total += len(want)
	}
	if total == 0 {
		t.Fatal("no moves generated")
	}
}

// TestEvaluateAllClassifiesParseErrors: a move text the pipeline cannot
// parse is invalid — counted under explore.moves.invalid, never as a
// candidate, and reduced without any event. A parseable candidate that
// fails later (here: the kernel needs the removed halt) stays an
// infeasible candidate with its event.
func TestEvaluateAllClassifiesParseErrors(t *testing.T) {
	ns, err := neighbours(machines.SPAMSource)
	if err != nil {
		t.Fatal(err)
	}
	var noHalt move
	for _, mv := range ns {
		if mv.action == "remove BR.halt" {
			noHalt = mv
		}
	}
	if noHalt.src == "" {
		t.Fatal("SPAM has no 'remove BR.halt' move")
	}
	moves := []move{{action: "garbled", src: "Machine broken;"}, noHalt}

	reg := obs.NewRegistry()
	var events []Event
	e := newEngine(New(machines.SPAMSource, "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n",
		WithWorkers(2), WithObs(reg), WithLog(func(ev Event) { events = append(events, ev) })))
	outs := e.evaluateAll(moves, nil)

	var perr *core.ParseError
	if !outs[0].invalid || !errors.As(outs[0].err, &perr) {
		t.Fatalf("unparsable move: invalid=%v err=%v, want invalid with a *core.ParseError", outs[0].invalid, outs[0].err)
	}
	if !strings.HasPrefix(outs[0].err.Error(), "core: parse ISDL: ") {
		t.Errorf("parse error message %q lost its prefix", outs[0].err)
	}
	if outs[1].invalid || outs[1].err == nil {
		t.Fatalf("compile failure: invalid=%v err=%v, want a valid move with an error", outs[1].invalid, outs[1].err)
	}
	for i, mv := range moves {
		if _, ok := e.scoreOutcome(1, mv, outs[i]); ok {
			t.Errorf("move %q scored", mv.action)
		}
	}
	if len(events) != 1 || events[0].Kind != "infeasible" || events[0].Action != noHalt.action {
		t.Fatalf("events = %+v, want one infeasible event for %q", events, noHalt.action)
	}
	c := reg.Counters()
	for name, want := range map[string]uint64{
		"explore.moves.invalid":    1,
		"explore.candidates":       1,
		"explore.moves.infeasible": 1,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
}
