package hgen

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
)

// holds is the plain two-valued reading of a constraint over a complete
// selection, kept independent of isdl's three-valued evaluator so the
// enumeration below is an oracle for it.
func holds(e isdl.CExpr, sel []*isdl.Operation) bool {
	switch e := e.(type) {
	case *isdl.CAtom:
		return sel[e.ResolvedField.Index] == e.ResolvedOp
	case *isdl.CNot:
		return !holds(e.X, sel)
	case *isdl.CBin:
		x, y := holds(e.X, sel), holds(e.Y, sel)
		switch e.Op {
		case "&":
			return x && y
		case "|":
			return x || y
		case "->":
			return !x || y
		}
	}
	panic("bad constraint expression")
}

// enumerateCoexistence visits every complete selection of d once and
// records which operation pairs appear together in a valid one. It returns
// the pairs and the number of selections visited.
func enumerateCoexistence(d *isdl.Description) (map[[2]*isdl.Operation]bool, int) {
	together := map[[2]*isdl.Operation]bool{}
	sel := make([]*isdl.Operation, len(d.Fields))
	n := 0
	var visit func(f int)
	visit = func(f int) {
		if f == len(sel) {
			n++
			for _, c := range d.Constraints {
				if !holds(c.Expr, sel) {
					return
				}
			}
			for i := range sel {
				for j := i + 1; j < len(sel); j++ {
					together[[2]*isdl.Operation{sel[i], sel[j]}] = true
				}
			}
			return
		}
		for _, op := range d.Fields[f].Ops {
			sel[f] = op
			visit(f + 1)
		}
	}
	visit(0)
	return together, n
}

// checkCoexistence compares canCoexist with the enumeration on every
// cross-field pair, in both argument orders. It returns how many pairs
// were answered yes and no, and how many selections were enumerated.
func checkCoexistence(t *testing.T, name string, d *isdl.Description) (yes, no, selections int) {
	t.Helper()
	together, selections := enumerateCoexistence(d)
	c := newCoexistence(d)
	for i, fi := range d.Fields {
		for _, fj := range d.Fields[i+1:] {
			for _, a := range fi.Ops {
				for _, b := range fj.Ops {
					want := together[[2]*isdl.Operation{a, b}]
					if got := c.canCoexist(a, b); got != want {
						t.Errorf("%s: canCoexist(%s, %s) = %v, enumeration says %v", name, a.QualName(), b.QualName(), got, want)
					}
					if got := c.canCoexist(b, a); got != want {
						t.Errorf("%s: canCoexist(%s, %s) = %v, enumeration says %v", name, b.QualName(), a.QualName(), got, want)
					}
					if want {
						yes++
					} else {
						no++
					}
				}
			}
		}
	}
	if c.exhausted != 0 {
		t.Errorf("%s: %d pairs exhausted the search budget", name, c.exhausted)
	}
	return yes, no, selections
}

// TestCoexistenceMatchesEnumeration: on the zoo's VLIW machines the pruned
// search answers every cross-field pair exactly as exhaustive enumeration
// of all selections does.
func TestCoexistenceMatchesEnumeration(t *testing.T) {
	for _, tc := range []struct {
		d          *isdl.Description
		selections int
	}{
		{machines.SPAM(), 76032},
		{machines.SPAM2(), 96},
	} {
		_, no, n := checkCoexistence(t, tc.d.Name, tc.d)
		if n != tc.selections {
			t.Errorf("%s: enumerated %d selections, want %d", tc.d.Name, n, tc.selections)
		}
		if no == 0 {
			t.Errorf("%s: no pair is excluded by the constraints", tc.d.Name)
		}
	}
}

// trimmedSPAM keeps the first three operations and the nop of every SPAM
// field, so each random constraint set enumerates quickly.
func trimmedSPAM() *isdl.Description {
	d := machines.SPAM()
	for _, f := range d.Fields {
		if n := len(f.Ops); n > 4 {
			f.Ops = append(f.Ops[:3], f.Ops[n-1])
		}
	}
	return d
}

// randCExpr draws a constraint expression over d's operations.
func randCExpr(rnd *rand.Rand, d *isdl.Description, depth int) string {
	if depth == 0 || rnd.Intn(3) == 0 {
		f := d.Fields[rnd.Intn(len(d.Fields))]
		return f.Ops[rnd.Intn(len(f.Ops))].QualName()
	}
	if rnd.Intn(4) == 0 {
		return "!" + randCExpr(rnd, d, depth-1)
	}
	op := []string{"&", "|", "->"}[rnd.Intn(3)]
	return "(" + randCExpr(rnd, d, depth-1) + " " + op + " " + randCExpr(rnd, d, depth-1) + ")"
}

// withRandomConstraints replaces d's constraint section with one to four
// random constraints (some written with never) and re-parses the result.
func withRandomConstraints(t *testing.T, rnd *rand.Rand, d *isdl.Description) (*isdl.Description, string) {
	t.Helper()
	var sec strings.Builder
	sec.WriteString("\nSection Constraints\n\n")
	for k := 1 + rnd.Intn(4); k > 0; k-- {
		kw := "constraint"
		if rnd.Intn(3) == 0 {
			kw = "never"
		}
		fmt.Fprintf(&sec, "%s %s;\n", kw, randCExpr(rnd, d, 3))
	}
	saved := d.Constraints
	d.Constraints = nil
	src := isdl.Format(d)
	d.Constraints = saved
	if i := strings.Index(src, "\nSection Architectural_Information"); i >= 0 {
		src = src[:i] + sec.String() + src[i:]
	} else {
		src += sec.String()
	}
	nd, err := isdl.Parse(src)
	if err != nil {
		t.Fatalf("random constraints do not parse: %v\n%s", err, sec.String())
	}
	return nd, sec.String()
}

// TestCoexistenceRandomConstraints runs the enumeration oracle over seeded
// random constraint sets on SPAM2's fields and a trimmed SPAM's.
func TestCoexistenceRandomConstraints(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	var yes, no int
	for _, base := range []*isdl.Description{machines.SPAM2(), trimmedSPAM()} {
		for i := 0; i < 60; i++ {
			d, text := withRandomConstraints(t, rnd, base)
			y, n, _ := checkCoexistence(t, fmt.Sprintf("%s set %d:%s", base.Name, i, text), d)
			yes, no = yes+y, no+n
		}
	}
	if yes == 0 || no == 0 {
		t.Errorf("oracle is vacuous: %d pairs coexist, %d do not", yes, no)
	}
}

// budgetSource has nFields two-operation fields and one constraint that
// forbids F0.x outright but stays undecided until the last field is
// chosen (no operation is both F<last>.x and F<last>.nop). F0.x and F1.x
// each own an adder, so synthesis asks exactly one cross-field question:
// can they coexist?
func budgetSource(nFields int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Machine budget;\nFormat %d;\nSection Global_Definitions\n", nFields)
	fmt.Fprintf(&sb, "Section Storage\nInstructionMemory IMEM width %d depth 16;\n", nFields)
	sb.WriteString("Register A width 8;\nRegister B width 8;\nProgramCounter PC width 4;\n")
	sb.WriteString("Section Instruction_Set\n")
	for i := 0; i < nFields; i++ {
		action := ""
		switch i {
		case 0:
			action = " Action { A <- A + 1; }"
		case 1:
			action = " Action { B <- B + 1; }"
		}
		fmt.Fprintf(&sb, "Field F%d:\n  op x Encode { I[%d:%d] = 0b0; }%s\n  op nop Encode { I[%d:%d] = 0b1; }\n", i, i, i, action, i, i)
	}
	last := nFields - 1
	fmt.Fprintf(&sb, "Section Constraints\nconstraint F0.x -> (F%d.x & F%d.nop);\n", last, last)
	return sb.String()
}

// TestCoexistenceBudgetExhaustion: when the search runs out of budget the
// pair is assumed to coexist, left unshared, and counted in the result. No
// zoo machine comes near the budget.
func TestCoexistenceBudgetExhaustion(t *testing.T) {
	opts := Options{Sharing: ShareRulesAndConstraints, Decode: DecodeTwoLevel}
	for _, e := range machines.Zoo() {
		r, err := Synthesize(e.Parse(), tech.LSI10K(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if r.CoexistExhausted != 0 {
			t.Errorf("%s: %d pairs exhausted the search budget", e.Name, r.CoexistExhausted)
		}
	}

	small, err := isdl.Parse(budgetSource(6))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Synthesize(small, tech.LSI10K(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if exact.CoexistExhausted != 0 || len(exact.Units) != 1 {
		t.Fatalf("6 fields: %d exhausted, %d units; want 0 exhausted and the adders shared in 1 unit",
			exact.CoexistExhausted, len(exact.Units))
	}
	if strings.Contains(exact.Report(), "exhausted") {
		t.Errorf("report mentions exhaustion with none:\n%s", exact.Report())
	}

	big, err := isdl.Parse(budgetSource(20))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Synthesize(big, tech.LSI10K(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.CoexistExhausted != 1 || len(r.Units) != 2 {
		t.Fatalf("20 fields: %d exhausted, %d units; want 1 exhausted pair and 2 unshared adders",
			r.CoexistExhausted, len(r.Units))
	}
	if !strings.Contains(r.Report(), "coexistence:    1 operation pairs exhausted") {
		t.Errorf("report does not show the exhausted pair:\n%s", r.Report())
	}
	opts.Sharing = ShareRules
	if r, err := Synthesize(big, tech.LSI10K(), opts); err != nil || r.CoexistExhausted != 0 {
		t.Errorf("rules-only sharing never searches: %v exhausted, err %v", r.CoexistExhausted, err)
	}
}
