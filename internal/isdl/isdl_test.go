package isdl_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/machines"
)

func TestParseToy(t *testing.T) {
	d, err := isdl.Parse(machines.ToySource)
	if err != nil {
		t.Fatal(err)
	}
	if d.Name != "toy" || d.WordWidth != 24 {
		t.Fatalf("header: name=%q width=%d", d.Name, d.WordWidth)
	}
	if len(d.Fields) != 1 {
		t.Fatalf("fields: %d", len(d.Fields))
	}
	if got := len(d.Fields[0].Ops); got != 16 {
		t.Fatalf("ops: %d", got)
	}
	if d.MaxSize() != 1 {
		t.Fatalf("MaxSize: %d", d.MaxSize())
	}
	if d.PC() == nil || d.PC().Name != "PC" {
		t.Fatal("PC not found")
	}
	if d.InstructionMemory() == nil || d.InstructionMemory().Name != "IMEM" {
		t.Fatal("IMEM not found")
	}
	if d.Info["issue_width"] != "1" {
		t.Fatalf("info: %v", d.Info)
	}
	if d.FieldByName("EX") == nil || d.FieldByName("nope") != nil {
		t.Fatal("FieldByName broken")
	}
}

func TestTokenRegSet(t *testing.T) {
	d := machines.Toy()
	gpr := d.Tokens["GPR"]
	if gpr.RetWidth != 3 {
		t.Fatalf("GPR width %d", gpr.RetWidth)
	}
	v, ok := gpr.ValueFor("R5")
	if !ok || v.Uint64() != 5 {
		t.Fatalf("ValueFor(R5) = %v, %v", v, ok)
	}
	for _, bad := range []string{"R8", "R", "R05", "Q3", "R-1", "R55"} {
		if _, ok := gpr.ValueFor(bad); ok {
			t.Errorf("ValueFor(%q) accepted", bad)
		}
	}
	name, ok := gpr.NameFor(bitvec.FromUint64(3, 6))
	if !ok || name != "R6" {
		t.Fatalf("NameFor(6) = %q, %v", name, ok)
	}
}

func TestTokenEnum(t *testing.T) {
	src := header() + `
Token CND enum { "eq" = 0, "ne" = 1, "gt" = 4 };
` + storageAndField()
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	cnd := d.Tokens["CND"]
	if cnd.RetWidth != 3 {
		t.Fatalf("enum width %d", cnd.RetWidth)
	}
	v, ok := cnd.ValueFor("gt")
	if !ok || v.Uint64() != 4 {
		t.Fatalf("ValueFor(gt) = %v %v", v, ok)
	}
	if _, ok := cnd.ValueFor("lt"); ok {
		t.Error("ValueFor(lt) accepted")
	}
	if n, ok := cnd.NameFor(bitvec.FromUint64(3, 1)); !ok || n != "ne" {
		t.Errorf("NameFor(1) = %q %v", n, ok)
	}
	if _, ok := cnd.NameFor(bitvec.FromUint64(3, 7)); ok {
		t.Error("NameFor(7) accepted")
	}
}

func TestTokenImmNameFor(t *testing.T) {
	d := machines.Toy()
	imm := d.Tokens["IMM8"]
	if n, ok := imm.NameFor(bitvec.FromInt64(8, -3)); !ok || n != "-3" {
		t.Errorf("signed NameFor(-3) = %q %v", n, ok)
	}
	u := d.Tokens["UIMM8"]
	if n, ok := u.NameFor(bitvec.FromUint64(8, 200)); !ok || n != "200" {
		t.Errorf("unsigned NameFor(200) = %q %v", n, ok)
	}
}

func TestSignatureShape(t *testing.T) {
	d := machines.Toy()
	add := d.Fields[0].ByName["add"]
	if got := add.Sig.String(); got != "0000aaabbbxxxxxccccccccc" {
		t.Fatalf("add signature %q", got)
	}
	// Constant-part matching.
	word, _ := bitvec.ParseBits("000010101100000000000101")
	if !add.Sig.Match(word) {
		t.Fatal("add should match its own opcode")
	}
	sub := d.Fields[0].ByName["sub"]
	if sub.Sig.Match(word) {
		t.Fatal("sub must not match an add word")
	}
	// Parameter extraction reverses the encoding.
	if got := add.Sig.Extract(0, 3, word).Uint64(); got != 5 {
		t.Fatalf("extract d = %d, want 5", got)
	}
	if got := add.Sig.Extract(1, 3, word).Uint64(); got != 3 {
		t.Fatalf("extract a = %d, want 3", got)
	}
	if got := add.Sig.Extract(2, 9, word).Uint64(); got != 5 {
		t.Fatalf("extract s = %d, want 5", got)
	}
}

func TestSignatureConstMask(t *testing.T) {
	d := machines.Toy()
	nopSig := d.Fields[0].ByName["nop"].Sig
	mask, val := nopSig.ConstMask()
	if mask.Uint64() != 0xf00000 {
		t.Fatalf("mask %x", mask.Uint64())
	}
	if val.Uint64() != 0xf00000 {
		t.Fatalf("val %x", val.Uint64())
	}
}

func TestConstraintEval(t *testing.T) {
	src := header() + storageOnly() + `
Section Instruction_Set
Field A:
  op x Encode { I[7:7] = 0b0; } Action { ACC <- ACC; }
  op anop Encode { I[7:7] = 0b1; }
Field B:
  op y Encode { I[6:6] = 0b0; } Action { ACC <- ACC; }
  op bnop Encode { I[6:6] = 0b1; }

Section Constraints
never A.x & B.y;
constraint B.y -> A.anop;
`
	d, err := isdl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Constraints) != 2 {
		t.Fatalf("constraints: %d", len(d.Constraints))
	}
	ax := d.Fields[0].ByName["x"]
	an := d.Fields[0].ByName["anop"]
	by := d.Fields[1].ByName["y"]
	bn := d.Fields[1].ByName["bnop"]
	cases := []struct {
		c    int
		a, b *isdl.Operation // nil: field not chosen yet
		want isdl.Truth
	}{
		{0, ax, by, isdl.False}, // never A.x & B.y fails when both are selected
		{0, ax, bn, isdl.True},
		{0, an, by, isdl.True},
		{0, ax, nil, isdl.Unknown},
		{0, an, nil, isdl.True}, // decided before B is chosen
		{0, nil, nil, isdl.Unknown},
		{1, an, by, isdl.True}, // B.y -> A.anop
		{1, ax, by, isdl.False},
		{1, ax, bn, isdl.True},
		{1, nil, bn, isdl.True},
		{1, nil, by, isdl.Unknown},
		{1, ax, nil, isdl.Unknown},
	}
	for _, tc := range cases {
		sel := []*isdl.Operation{tc.a, tc.b}
		if got := d.Constraints[tc.c].Eval(sel); got != tc.want {
			t.Errorf("%s over %s: %d, want %d", d.Constraints[tc.c].Text, selString(sel), got, tc.want)
		}
	}
}

// TestConstraintEvalThreeValued is the oracle for the three-valued
// evaluator: on random expressions and random partial selections, a
// definite answer agrees with every completion of the selection, and on
// complete selections Eval equals plain two-valued evaluation.
func TestConstraintEvalThreeValued(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	fields := make([]*isdl.Field, 4)
	for i := range fields {
		f := &isdl.Field{Name: fmt.Sprintf("F%d", i), Index: i}
		for j := 0; j < 2+i%2; j++ {
			f.Ops = append(f.Ops, &isdl.Operation{Name: fmt.Sprintf("o%d", j), Field: f})
		}
		fields[i] = f
	}
	var gen func(depth int) isdl.CExpr
	gen = func(depth int) isdl.CExpr {
		if depth == 0 || rnd.Intn(3) == 0 {
			f := fields[rnd.Intn(len(fields))]
			op := f.Ops[rnd.Intn(len(f.Ops))]
			return &isdl.CAtom{Field: f.Name, Op: op.Name, ResolvedField: f, ResolvedOp: op}
		}
		if rnd.Intn(4) == 0 {
			return &isdl.CNot{X: gen(depth - 1)}
		}
		return &isdl.CBin{Op: []string{"&", "|", "->"}[rnd.Intn(3)], X: gen(depth - 1), Y: gen(depth - 1)}
	}
	var plain func(e isdl.CExpr, sel []*isdl.Operation) bool
	plain = func(e isdl.CExpr, sel []*isdl.Operation) bool {
		switch e := e.(type) {
		case *isdl.CAtom:
			return sel[e.ResolvedField.Index] == e.ResolvedOp
		case *isdl.CNot:
			return !plain(e.X, sel)
		case *isdl.CBin:
			x, y := plain(e.X, sel), plain(e.Y, sel)
			switch e.Op {
			case "&":
				return x && y
			case "|":
				return x || y
			}
			return !x || y
		}
		panic("bad constraint expression")
	}
	var complete func(sel []*isdl.Operation, f int, visit func())
	complete = func(sel []*isdl.Operation, f int, visit func()) {
		if f == len(sel) {
			visit()
			return
		}
		if sel[f] != nil {
			complete(sel, f+1, visit)
			return
		}
		for _, op := range fields[f].Ops {
			sel[f] = op
			complete(sel, f+1, visit)
		}
		sel[f] = nil
	}

	definite := 0
	for trial := 0; trial < 3000; trial++ {
		c := &isdl.Constraint{Expr: gen(4)}
		sel := make([]*isdl.Operation, len(fields))
		for i, f := range fields {
			if rnd.Intn(2) == 0 {
				sel[i] = f.Ops[rnd.Intn(len(f.Ops))]
			}
		}
		partial := c.Eval(sel)
		if partial != isdl.Unknown && slices.Contains(sel, nil) {
			definite++
		}
		complete(sel, 0, func() {
			want := isdl.False
			if plain(c.Expr, sel) {
				want = isdl.True
			}
			if got := c.Eval(sel); got != want {
				t.Fatalf("trial %d: complete selection %s: Eval %d, plain %d", trial, selString(sel), got, want)
			}
			if partial != isdl.Unknown && partial != want {
				t.Fatalf("trial %d: partial answer %d contradicted by completion %s", trial, partial, selString(sel))
			}
		})
	}
	if definite == 0 {
		t.Error("no partial selection got a definite answer")
	}
}

func selString(sel []*isdl.Operation) string {
	parts := make([]string, len(sel))
	for i, op := range sel {
		parts[i] = "-"
		if op != nil {
			parts[i] = op.QualName()
		}
	}
	return strings.Join(parts, " ")
}

// --- error-path tests -------------------------------------------------------

// header returns a minimal valid prologue.
func header() string {
	return "Machine t;\nFormat 8;\nSection Global_Definitions\n"
}

func storageOnly() string {
	return `
Section Storage
InstructionMemory IMEM width 8 depth 16;
Register ACC width 8;
ProgramCounter PC width 4;
`
}

func storageAndField() string {
	return storageOnly() + `
Section Instruction_Set
Field F:
  op nop Encode { I[7:7] = 0b0; }
`
}

func expectErr(t *testing.T, src, want string) {
	t.Helper()
	_, err := isdl.Parse(src)
	if err == nil {
		t.Fatalf("expected error containing %q, got success", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err.Error(), want)
	}
}

func TestErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"missing format", "Machine m;\nSection Storage\n", "Format"},
		{"unknown section", header() + "Section Bogus\n", "unknown section"},
		{"dup token", header() + "Token A \"R\" [0..1];\nToken A \"Q\" [0..1];\n" + storageAndField(), "duplicate token"},
		{"empty regset range", header() + "Token A \"R\" [5..2];\n" + storageAndField(), "empty range"},
		{"no pc", header() + "Section Storage\nInstructionMemory IMEM width 8 depth 16;\nRegister ACC width 8;\nSection Instruction_Set\nField F:\n op nop Encode { I[0:0] = 0b0; }\n", "ProgramCounter"},
		{"no imem", header() + "Section Storage\nRegister ACC width 8;\nProgramCounter PC width 4;\nSection Instruction_Set\nField F:\n op nop Encode { I[0:0] = 0b0; }\n", "InstructionMemory"},
		{"depth on register", header() + "Section Storage\nInstructionMemory IMEM width 8 depth 16;\nRegister ACC width 8 depth 2;\nProgramCounter PC width 4;\n", "cannot have a depth"},
		{"alias unknown", header() + storageOnly() + "Alias Z = NOPE;\nSection Instruction_Set\nField F:\n op nop Encode { I[0:0] = 0b0; }\n", "unknown storage"},
		{"alias bad slice", header() + storageOnly() + "Alias Z = ACC[9:0];\nSection Instruction_Set\nField F:\n op nop Encode { I[0:0] = 0b0; }\n", "exceeds width"},
		{"overlap bits", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[3:0] = 0x1; I[2:1] = 0b00; }\n", "assigned more than once"},
		{"bits out of range", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[8:5] = 0x1; }\n", "exceeds destination width"},
		{"unencoded param", header() + "Token GPR \"R\" [0..3];\n" + storageOnly() + "Section Instruction_Set\nField F:\n op a (r: GPR) Encode { I[0:0] = 0b1; } Action { ACC <- ACC; }\n", "never encoded"},
		{"ambiguous ops", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; }\n op b Encode { I[1:1] = 0b1; }\n", "not distinguishable"},
		{"unsized const", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[3:0] = 3; }\n", "must be sized"},
		{"const width mismatch", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[3:0] = 0b011; }\n", "does not match bitfield width"},
		{"unknown name in action", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- BOGUS; }\n", "unknown name"},
		{"assign width mismatch", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- PC; }\n", "width mismatch"},
		{"assign to token", header() + "Token GPR \"R\" [0..3];\n" + storageOnly() + "Section Instruction_Set\nField F:\n op a (r: GPR) Encode { I[0:0] = 0b1; I[2:1] = r; } Action { r <- ACC; }\n", "not assignable"},
		{"recursive nt", header() + "Non_Terminal N width 2 :\n option (x: N) Encode { R[1:0] = x; } Value { x }\n;\n" + storageAndField(), "recursively defined"},
		{"nt missing value", header() + "Token GPR \"R\" [0..3];\nNon_Terminal N width 2 :\n option (r: GPR) Encode { R[1:0] = r; }\n;\n" + storageAndField(), "missing Value"},
		{"nt value width disagrees", header() + "Token GPR \"R\" [0..3];\nNon_Terminal N width 3 :\n option (r: GPR) Encode { R[2] = 0b0; R[1:0] = r; } Value { r }\n option \"#\" (r: GPR) Encode { R[2] = 0b1; R[1:0] = r; } Value { zext(r, 4) }\n;\n" + storageAndField(), "differs"},
		{"bad constraint op", header() + storageAndField() + "Section Constraints\nnever F.bogus;\n", "unknown operation"},
		{"bad constraint field", header() + storageAndField() + "Section Constraints\nnever G.nop;\n", "unknown field"},
		{"push to non-stack", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { push(ACC, 0b00000001); }\n", "not a Stack"},
		{"unknown builtin", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- frobnicate(ACC); }\n", "unknown builtin"},
		{"index non-addressed", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- ACC[PC]; }\n", "not addressed"},
		{"addressed without index", header() + storageOnly() + "DataMemory D width 8 depth 4;\nSection Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- D; }\n", "addressed storage"},
		{"slice out of range", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- zext(ACC[9:0], 8); }\n", "exceeds"},
		{"literal too big", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Action { ACC <- 4096; }\n", "does not fit"},
		{"cycle zero", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; } Cost { Cycle = 0; }\n", "at least 1"},
		{"unterminated comment", header() + "/* oops", "unterminated"},
		{"unterminated string", header() + "Token A \"R [0..1];\n", "unterminated string"},
		{"empty field", header() + storageOnly() + "Section Instruction_Set\nField F:\n", "no operations"},
		{"dup op", header() + storageOnly() + "Section Instruction_Set\nField F:\n op a Encode { I[0:0] = 0b1; }\n op a Encode { I[0:0] = 0b0; }\n", "duplicate operation"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { expectErr(t, c.src, c.want) })
	}
}

func TestAliasResolution(t *testing.T) {
	d := machines.Toy()
	a := d.AliasByName("CARRY")
	if a == nil || !a.Sliced || a.Hi != 0 || a.Lo != 0 {
		t.Fatalf("CARRY alias: %+v", a)
	}
	if w := d.AliasWidth(a); w != 1 {
		t.Fatalf("CARRY width %d", w)
	}
	rz := d.AliasByName("RZ")
	if rz == nil || !rz.Indexed || rz.Index != 0 || rz.Sliced {
		t.Fatalf("RZ alias: %+v", rz)
	}
	if w := d.AliasWidth(rz); w != 8 {
		t.Fatalf("RZ width %d", w)
	}
}

func TestOperationDefaults(t *testing.T) {
	d := machines.Toy()
	nop := d.Fields[0].ByName["nop"]
	if nop.Costs.Cycle != 1 || nop.Costs.Size != 1 || nop.Timing.Latency != 1 || nop.Timing.Usage != 1 {
		t.Fatalf("defaults: %+v %+v", nop.Costs, nop.Timing)
	}
	mul := d.Fields[0].ByName["mul"]
	if mul.Costs.Stall != 2 || mul.Timing.Latency != 3 {
		t.Fatalf("mul costs: %+v %+v", mul.Costs, mul.Timing)
	}
	if mul.QualName() != "EX.mul" {
		t.Fatalf("QualName: %s", mul.QualName())
	}
}

func TestRTLStringer(t *testing.T) {
	d := machines.Toy()
	beq := d.Fields[0].ByName["beq"]
	s := beq.Action[0].String()
	if !strings.Contains(s, "if") || !strings.Contains(s, "PC <- t") {
		t.Fatalf("beq action rendered as %q", s)
	}
}

func TestWalkExprs(t *testing.T) {
	d := machines.Toy()
	add := d.Fields[0].ByName["add"]
	var count int
	isdl.WalkExprs(add.Action, func(isdl.Expr) { count++ })
	// RF[d] <- RF[a] + s: Index(LHS) + its Idx Ref, Binary, Index(RHS) + its
	// Idx Ref, Ref(s) = 6 nodes.
	if count != 6 {
		t.Fatalf("walk visited %d nodes, want 6", count)
	}
}

// TestFormatRoundTrip: Format output re-parses, and Format∘Parse is a
// fixpoint — the property the exploration driver relies on to materialize
// mutated candidates.
func TestFormatRoundTrip(t *testing.T) {
	for _, src := range []string{machines.ToySource, machines.SPAMSource, machines.SPAM2Source} {
		d, err := isdl.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		text1 := isdl.Format(d)
		d2, err := isdl.Parse(text1)
		if err != nil {
			t.Fatalf("Format output does not re-parse: %v\n%s", err, text1)
		}
		text2 := isdl.Format(d2)
		if text1 != text2 {
			t.Fatalf("Format∘Parse is not a fixpoint for %s", d.Name)
		}
		// Semantic spot checks survive the round trip.
		if len(d2.Fields) != len(d.Fields) || len(d2.Constraints) != len(d.Constraints) {
			t.Fatalf("%s: structure changed across round trip", d.Name)
		}
		for i, f := range d.Fields {
			if len(d2.Fields[i].Ops) != len(f.Ops) {
				t.Fatalf("%s: field %s op count changed", d.Name, f.Name)
			}
			for j, op := range f.Ops {
				if d2.Fields[i].Ops[j].Sig.String() != op.Sig.String() {
					t.Fatalf("%s: %s signature changed across round trip", d.Name, op.QualName())
				}
			}
		}
	}
}

// TestSignatureExtractInverseQuick is a testing/quick property on the core
// signature machinery: for random register/immediate operands, applying the
// toy add encoding and extracting through the signature recovers the exact
// parameter values (the invertibility Axiom 1 guarantees).
func TestSignatureExtractInverseQuick(t *testing.T) {
	d := machines.Toy()
	add := d.Fields[0].ByName["add"]
	f := func(dv, av uint8, imm int8) bool {
		dr := uint64(dv % 8)
		ar := uint64(av % 8)
		// Build the instruction word by hand from the known layout:
		// opcode 0, d [19:17], a [16:14], s = immediate option {1, imm}.
		word := bitvec.New(24)
		word = word.Or(bitvec.FromUint64(24, dr<<17))
		word = word.Or(bitvec.FromUint64(24, ar<<14))
		sval := uint64(0x100) | uint64(uint8(imm))
		word = word.Or(bitvec.FromUint64(24, sval))
		if !add.Sig.Match(word) {
			return false
		}
		if add.Sig.Extract(0, 3, word).Uint64() != dr {
			return false
		}
		if add.Sig.Extract(1, 3, word).Uint64() != ar {
			return false
		}
		ret := add.Sig.Extract(2, 9, word)
		opt, sub, err := func() (*isdl.Option, []interface{}, error) {
			o, s, e := decodeNT(d, ret)
			return o, s, e
		}()
		_ = sub
		if err != nil || opt.Index != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// decodeNT adapts the decode package's recursive option decode without
// importing it (isdl tests stay below decode in the dependency order):
// match each option's signature and verify the immediate round-trips.
func decodeNT(d *isdl.Description, ret bitvec.Value) (*isdl.Option, []interface{}, error) {
	nt := d.NonTerminals["SRC"]
	for _, opt := range nt.Options {
		if opt.Sig.Match(ret) {
			return opt, nil, nil
		}
	}
	return nil, nil, errNoOption
}

var errNoOption = fmt.Errorf("no option matched")
