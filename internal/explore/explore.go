// Package explore implements architecture exploration by iterative
// improvement (paper §1, Figure 1). Each iteration takes the current
// candidate ISDL description(s), generates neighbours by instruction-set-
// level edits — removing an operation, retiming a functional unit, resizing
// a memory — recompiles the application with the retargetable compiler,
// re-evaluates with the generated simulator and hardware model
// (internal/core), and keeps the best candidates according to the
// configured search Strategy: HillClimb (the paper's loop — accept the
// best improving move, stop at the first local optimum), Beam (keep a
// top-K frontier alive per iteration), Pareto (keep the non-dominated
// (run time, area, power) frontier under optional hard constraints — one
// run answers every weighting) or Restarts (re-run an inner strategy from
// seeded random perturbations of the base).
//
// The entry point is New with functional options:
//
//	res, err := explore.New(base, kernel,
//	        explore.WithBeam(4),
//	        explore.WithRestarts(3, 1),
//	        explore.WithWorkers(8)).Run()
//
// Each candidate is an ISDL description: its parent's description with one
// edit applied, derived by the worker that evaluates it (isdl.Derive) and
// checked by the same semantic pass as a parsed text — the paper's flow,
// where the architecture synthesis system outputs an ISDL description and
// every tool is regenerated from it. Its canonical ISDL text (isdl.Format)
// deduplicates candidates, keys their evaluation and is what a run
// reports. Changes happen at the granularity of a single operation
// definition, the fine grain §4.1 argues parameterized-architecture
// systems cannot reach. Whatever the strategy and worker count, results
// are bit-identical: candidates are evaluated by a bounded pool but
// reduced in move order.
package explore

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/isdl"
)

// Weights define the scalar objective (lower is better).
type Weights struct {
	Runtime float64
	Area    float64
	Power   float64
}

// DefaultWeights trade performance against cost the way the paper's
// embedded targets do: run time first, then silicon, then power.
func DefaultWeights() Weights { return Weights{Runtime: 1, Area: 0.5, Power: 0.2} }

// Validate rejects weights that produce a meaningless objective: NaN or
// infinite components poison every score comparison (NaN compares false
// against everything, so nothing is ever "accepted"), negative weights
// reward cost, and all-zero weights score every candidate 0.0. Config.Run
// calls this before exploring; cmd/explore checks at flag-parse time.
func (w Weights) Validate() error {
	for _, c := range []struct {
		name string
		v    float64
	}{{"runtime", w.Runtime}, {"area", w.Area}, {"power", w.Power}} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("explore: invalid %s weight %v (must be finite)", c.name, c.v)
		}
		if c.v < 0 {
			return fmt.Errorf("explore: invalid %s weight %v (must be >= 0)", c.name, c.v)
		}
	}
	if w.Runtime == 0 && w.Area == 0 && w.Power == 0 {
		return fmt.Errorf("explore: all-zero weights score every candidate 0.0; set at least one weight > 0")
	}
	return nil
}

// Step records one accepted or rejected exploration move.
type Step struct {
	Iter int
	// Restart is the restart the step belongs to (0 outside Restarts).
	Restart  int
	Action   string
	Eval     *core.Evaluation
	Score    float64
	Accepted bool
	// Infeasible, when non-empty, says why a scored candidate could not
	// be accepted regardless of its Score — e.g. "constraint: area,
	// power" for a Pareto candidate over a hard bound. Accepted is always
	// false for such steps.
	Infeasible string
}

// Result is the outcome of an exploration run.
type Result struct {
	Initial *core.Evaluation
	Final   *core.Evaluation
	// FinalSource is the ISDL text of the winning candidate.
	FinalSource string
	Steps       []Step
	// Restarts reports each restart's best when the run used the Restarts
	// strategy (nil otherwise). Final/FinalSource are the global winner.
	Restarts []RestartResult
	// Frontier is the non-dominated (run time, area, power) trade-off
	// curve when the run used the Pareto strategy (nil otherwise), in
	// ascending-runtime order. Final/FinalSource then hold the scalar-best
	// frontier point under the run's Weights.
	Frontier []FrontierPoint
}

// Event is one structured exploration log record. Kind says what
// happened, the typed fields carry what is known at that point, and Line
// always holds the formatted human-readable text (exactly the lines the
// old Log func(string) contract delivered).
type Event struct {
	// Kind is one of "base", "candidate", "infeasible", "cache",
	// "accept", "frontier", "restart", "stop".
	Kind string
	// Iter is the 1-based iteration; 0 for the base evaluation and for
	// restart-level events.
	Iter int
	// Restart is the restart the event belongs to (0 outside Restarts).
	Restart int
	// Action is the mutation that produced the candidate (candidate,
	// infeasible and accept events) or the perturbation (restart events).
	Action string
	// Score is the objective value. It is meaningful only when Scored is
	// true: a candidate the pipeline rejected has no score, and its zero
	// Score must not be read as "free" by JSON log consumers. An
	// infeasible event with Scored true is a Pareto candidate that
	// evaluated fine but violates a hard constraint (Err says which).
	Score float64
	// Scored reports whether Score carries a real objective value (base,
	// candidate and accept events).
	Scored bool
	// Accepted marks a candidate that improved on the best-so-far.
	Accepted bool
	// Eval is the candidate's evaluation (base, candidate, accept).
	Eval *core.Evaluation
	// Err says why the candidate was infeasible (infeasible events).
	Err error
	// Frontier lists the surviving frontier's scalar scores (frontier
	// events): best first under Beam, canonical curve order (ascending
	// run time) under Pareto.
	Frontier []float64
	// Line is the formatted log line.
	Line string
}

// edit changes a description in place and returns the function that
// restores it exactly. neighbours applies each edit to a source's
// description, prints the result and undoes it; a worker applies the same
// edit to its own copy of that description (isdl.Derive). An edit finds
// what it changes by position, so it means the same on the source and on
// the copy.
type edit func(d *isdl.Description) (undo func())

// move is one candidate mutation of a source description.
type move struct {
	action string
	// src is the mutated description's canonical ISDL text (isdl.Format
	// output), so equal architectures reached through different paths
	// compare equal as strings. It deduplicates candidates, keys their
	// evaluation and becomes FinalSource.
	src  string
	edit edit
}

// neighbours generates the mutation set of d. Each move's edit is applied
// to d, d is formatted, and the edit is undone before the next move, so d
// is unchanged when neighbours returns. Moves are not validated here: an
// edit whose result is no valid description fails the worker's derive
// (expand) and is dropped without an event.
func neighbours(d *isdl.Description) []move {
	var out []move
	add := func(action string, ed edit) {
		undo := ed(d)
		out = append(out, move{action: action, src: isdl.Format(d), edit: ed})
		undo()
	}

	// Remove one operation (never a nop: the assembler and scheduler fill
	// empty VLIW slots with it).
	for fi, f := range d.Fields {
		if len(f.Ops) == 1 {
			continue
		}
		for oi, op := range f.Ops {
			if op.Name != "nop" {
				add("remove "+op.QualName(), removeOp(fi, oi))
			}
		}
	}

	// Halve each data memory.
	for si, st := range d.Storage {
		if st.Kind == isdl.StDataMemory && st.Depth >= 64 {
			add(fmt.Sprintf("halve %s depth", st.Name), halveDepth(si))
		}
	}

	// Retime multi-cycle operations: one pipeline stage fewer (deeper
	// cycle) or one more (shorter cycle, more stalls).
	for fi, f := range d.Fields {
		for oi, op := range f.Ops {
			if op.Timing.Latency > 1 {
				add("shorten "+op.QualName()+" pipeline", retime(fi, oi, -1))
				add("deepen "+op.QualName()+" pipeline", retime(fi, oi, 1))
			}
		}
	}
	return out
}

// removeOp deletes operation oi of field fi, dropping any constraint that
// mentions it. It builds new Ops and Constraints slices instead of editing
// the old ones in place, so the undo only has to put the old slices back.
func removeOp(fi, oi int) edit {
	return func(d *isdl.Description) func() {
		f := d.Fields[fi]
		ops, cons := f.Ops, d.Constraints
		op := ops[oi]
		f.Ops = make([]*isdl.Operation, 0, len(ops)-1)
		f.Ops = append(append(f.Ops, ops[:oi]...), ops[oi+1:]...)
		delete(f.ByName, op.Name)
		d.Constraints = nil
		for _, c := range cons {
			if !mentionsOp(c.Expr, f.Name, op.Name) {
				d.Constraints = append(d.Constraints, c)
			}
		}
		return func() {
			f.Ops, d.Constraints = ops, cons
			f.ByName[op.Name] = op
		}
	}
}

// halveDepth halves the depth of storage si.
func halveDepth(si int) edit {
	return func(d *isdl.Description) func() {
		st := d.Storage[si]
		depth := st.Depth
		st.Depth /= 2
		return func() { st.Depth = depth }
	}
}

// retime moves operation oi of field fi by delta pipeline stages: its
// Latency and its Stall change by delta, and Stall stays at least 0.
func retime(fi, oi, delta int) edit {
	return func(d *isdl.Description) func() {
		op := d.Fields[fi].Ops[oi]
		timing, costs := op.Timing, op.Costs
		op.Timing.Latency += delta
		op.Costs.Stall = max(op.Costs.Stall+delta, 0)
		return func() { op.Timing, op.Costs = timing, costs }
	}
}

func mentionsOp(e isdl.CExpr, field, op string) bool {
	switch e := e.(type) {
	case *isdl.CAtom:
		return e.Field == field && e.Op == op
	case *isdl.CNot:
		return mentionsOp(e.X, field, op)
	case *isdl.CBin:
		return mentionsOp(e.X, field, op) || mentionsOp(e.Y, field, op)
	}
	return false
}

func oneLine(e *core.Evaluation) string {
	return fmt.Sprintf("%d cyc × %.1f ns = %.1f us, %.0f cells, %.1f mW",
		e.Cycles, e.CycleNs, e.RuntimeUs, e.AreaCells, e.PowerMW)
}

// Report renders the exploration history.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "initial: %s\n", oneLine(r.Initial))
	for _, s := range r.Steps {
		mark := " "
		if s.Accepted {
			mark = "*"
		}
		fmt.Fprintf(&sb, "%s iter %-2d %-30s score %10.2f  %s\n", mark, s.Iter, s.Action, s.Score, oneLine(s.Eval))
	}
	for _, rr := range r.Restarts {
		if rr.Err != nil {
			fmt.Fprintf(&sb, "restart %d (%s): infeasible: %v\n", rr.Index, rr.Perturbation, rr.Err)
			continue
		}
		mark := ""
		if rr.Winner {
			mark = "  <- winner"
		}
		fmt.Fprintf(&sb, "restart %d (%s): best score %.2f  %s%s\n", rr.Index, rr.Perturbation, rr.Score, oneLine(rr.Eval), mark)
	}
	if len(r.Frontier) > 0 {
		fmt.Fprintf(&sb, "frontier (%d non-dominated points, fastest first):\n", len(r.Frontier))
		for i, p := range r.Frontier {
			fmt.Fprintf(&sb, "  %2d. %s\n", i+1, frontierLine(p))
		}
	}
	fmt.Fprintf(&sb, "final:   %s\n", oneLine(r.Final))
	return sb.String()
}
