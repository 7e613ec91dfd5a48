package explore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/isdl"
	"repro/internal/isdl/isdltest"
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

// oracleKernel is explore's CI kernel, examples/kernels/sum.k.
const oracleKernel = "var i, s;\ns = 0;\nfor i = 0 to 7 { s = s + i; }\n"

// TestNeighboursMatchReparse is the oracle for moves and the descriptions
// workers derive from them. For every move of the zoo, of random machines
// (both ForCompiler settings) and of perturbed zoo machines, and of one
// derived description of each, two levels deep:
//   - the moves whose text parses are exactly the reference generator's:
//     same actions, same texts, same order; since the moves share one
//     description, this also proves that every undo restores it exactly;
//   - Derive of the move fails exactly when Parse of its text fails;
//   - the derived description formats to the move text and has the
//     reparsed text's structure;
//   - evaluating it gives the same evaluation, or the same error, as
//     EvaluateKernel of the text.
func TestNeighboursMatchReparse(t *testing.T) {
	// spamTopAlias has a move that is no valid description.
	srcs := []string{spamTopAlias}
	for _, z := range machines.Zoo() {
		srcs = append(srcs, z.Source)
	}
	n, perturbed := 200, 6
	if testing.Short() {
		n, perturbed = 20, 1
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		srcs = append(srcs, randmachine.Generate(rnd, randmachine.Config{ForCompiler: i%2 == 1}).Source)
	}
	for i := 0; i < perturbed; i++ {
		for _, z := range machines.Zoo() {
			src, _, err := randmachine.Perturb(rnd, z.Source, 2)
			if err != nil {
				t.Fatalf("perturb %s: %v", z.Name, err)
			}
			srcs = append(srcs, src)
		}
	}

	derived := &core.Pipeline{Cache: core.NewStageCache(nil, nil)}
	reparsed := &core.Pipeline{Cache: core.NewStageCache(nil, nil)}
	total, invalid := 0, 0
	// check checks the moves of d and returns the descriptions derived from
	// them.
	check := func(name string, d *isdl.Description) []*isdl.Description {
		text := isdl.Format(d)
		moves := neighbours(d)
		if isdl.Format(d) != text {
			t.Fatalf("%s: neighbours left its description changed", name)
		}
		want, err := neighboursReparse(text)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		var valid []move
		var out []*isdl.Description
		for _, mv := range moves {
			c, derr := isdl.Derive(d, func(c *isdl.Description) { mv.edit(c) })
			r, perr := isdl.Parse(mv.src)
			if (derr == nil) != (perr == nil) {
				t.Fatalf("%s: %s: Derive error %v, Parse error %v", name, mv.action, derr, perr)
			}
			total++
			if derr != nil {
				invalid++
				continue
			}
			valid = append(valid, mv)
			if isdl.Format(c) != mv.src {
				t.Fatalf("%s: %s: the derived description formats differently from the move text", name, mv.action)
			}
			if s1, s2 := isdltest.Structure(c), isdltest.Structure(r); s1 != s2 {
				t.Fatalf("%s: %s: structure differs:\n%s\n--- reparsed:\n%s", name, mv.action, s1, s2)
			}
			ev1, _, err1 := derived.EvaluateBuild(func() (*isdl.Description, string, error) { return c, mv.src, nil }, oracleKernel, "kernel", nil)
			ev2, _, err2 := reparsed.EvaluateKernel(mv.src, oracleKernel, "kernel", nil)
			if fmt.Sprint(err1) != fmt.Sprint(err2) || !reflect.DeepEqual(ev1, ev2) {
				t.Fatalf("%s: %s: derived evaluation %+v (%v), text's %+v (%v)", name, mv.action, ev1, err1, ev2, err2)
			}
			out = append(out, c)
		}
		if len(valid) != len(want) {
			t.Fatalf("%s: %d valid moves, reference has %d", name, len(valid), len(want))
		}
		for j := range want {
			if valid[j].action != want[j].action || valid[j].src != want[j].src {
				t.Fatalf("%s: move %d is %q, reference %q (or the texts differ)", name, j, valid[j].action, want[j].action)
			}
		}
		return out
	}
	for i, src := range srcs {
		d, err := isdl.Parse(src)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		// The second level expands one derived description, a different
		// move's from one source to the next.
		if next := check(fmt.Sprintf("source %d", i), d); len(next) > 0 {
			check(fmt.Sprintf("source %d, move %d", i, i%len(next)), next[i%len(next)])
		}
	}
	if invalid == 0 || invalid == total {
		t.Fatalf("%d moves, %d invalid; want some of each", total, invalid)
	}
	t.Logf("%d moves from %d sources, %d invalid", total, len(srcs), invalid)
}

// spamTopAlias is SPAM with an alias near the top of DMY, so that the move
// "halve DMY depth" leaves an alias index beyond the depth: a move whose
// edit yields no valid description.
var spamTopAlias = strings.Replace(machines.SPAMSource, "Alias ACCLO = ACC[31:0];", "Alias ACCLO = ACC[31:0];\nAlias TOPY = DMY[1000];", 1)

// TestEvaluateAllClassifiesParseErrors: in expand's loop, a move whose
// edit leaves no valid description is invalid — a *core.ParseError,
// counted under explore.moves.invalid, never as a candidate, and reduced
// without any event. A valid candidate that fails later (here: the kernel
// needs the removed halt) stays an infeasible candidate with its event.
// (A text that does not parse is EvaluateKernel's ParseError:
// TestEvaluateErrors in internal/core.)
func TestEvaluateAllClassifiesParseErrors(t *testing.T) {
	if spamTopAlias == machines.SPAMSource {
		t.Fatal("SPAM has no ACCLO alias to follow")
	}
	reg := obs.NewRegistry()
	var events []Event
	e := newEngine(New(spamTopAlias, oracleKernel,
		WithWorkers(2), WithObs(reg), WithLog(func(ev Event) { events = append(events, ev) })))
	moves, outs, err := e.expand(nil, []source{{action: "base", src: spamTopAlias}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	find := func(action string) int {
		for i, mv := range moves {
			if mv.action == action {
				return i
			}
		}
		t.Fatalf("no move %q", action)
		return -1
	}
	halve, noHalt := find("halve DMY depth"), find("remove BR.halt")

	var perr *core.ParseError
	if o := outs[halve]; !o.invalid || !errors.As(o.err, &perr) || !strings.Contains(o.err.Error(), "index 1000 exceeds depth 512") {
		t.Fatalf("invalid edit: invalid=%v err=%v, want invalid with a *core.ParseError", o.invalid, o.err)
	}
	if o := outs[noHalt]; o.invalid || o.err == nil {
		t.Fatalf("compile failure: invalid=%v err=%v, want a valid move with an error", o.invalid, o.err)
	}
	for _, i := range []int{halve, noHalt} {
		if _, ok := e.scoreOutcome(1, moves[i], outs[i]); ok {
			t.Errorf("move %q scored", moves[i].action)
		}
	}
	if len(events) != 1 || events[0].Kind != "infeasible" || events[0].Action != moves[noHalt].action {
		t.Fatalf("events = %+v, want one infeasible event for %q", events, moves[noHalt].action)
	}
	c := reg.Counters()
	for name, want := range map[string]uint64{
		"explore.moves.invalid":    1,
		"explore.candidates":       uint64(len(moves) - 1),
		"explore.moves.infeasible": 1,
	} {
		if c[name] != want {
			t.Errorf("%s = %d, want %d", name, c[name], want)
		}
	}
}

// tinyMachine has no operation to remove (its one field has one) and none
// to retime, so its only move halves DM, which leaves the alias TOP beyond
// the depth.
const tinyMachine = `
Format 8;

Section Global_Definitions

Section Storage

InstructionMemory IM width 8 depth 16;
DataMemory DM width 8 depth 64;
ProgramCounter PC width 4;
Register A width 8;
Alias TOP = DM[40];

Section Instruction_Set

Field F:
  op ld
    Encode { I[7:0] = 0b00000001; }
    Action { A <- TOP; }
`

// TestAllInvalidSourceIsAnError: when every move of an expanded source is
// invalid, exploration fails, naming the source and the first move's
// error, instead of reporting the source as the optimum.
func TestAllInvalidSourceIsAnError(t *testing.T) {
	e := newEngine(New(tinyMachine, oracleKernel, WithWorkers(2)))
	for _, seen := range []map[string]bool{nil, {}} {
		_, _, err := e.expand(nil, []source{{action: "base", src: tinyMachine}}, seen)
		var perr *core.ParseError
		if err == nil || !errors.As(err, &perr) {
			t.Fatalf("expand = %v, want an error wrapping a *core.ParseError", err)
		}
		for _, want := range []string{"every move of base (1) is invalid", "halve DM depth", "index 40 exceeds depth 32"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not say %q", err, want)
			}
		}
	}
	// A source some of whose moves were already queued is not judged: the
	// dropped moves may be valid.
	d, err := isdl.Parse(tinyMachine)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{neighbours(d)[0].src: true}
	if moves, _, err := e.expand(nil, []source{{action: "base", src: tinyMachine}}, seen); err != nil || len(moves) != 0 {
		t.Fatalf("expand with every move seen = %d moves, %v; want none and no error", len(moves), err)
	}
}
