package isdl

import "repro/internal/bitvec"

// This file is the one definition of the RTL operators and pure builtins
// (§2.1.3): how each is written, how the semantic pass types it, what it
// computes and which circuit HGEN maps it to. The parser, the semantic
// pass, the read-set walk, the interpreter (internal/xsim) and HGEN's node
// extraction read the table; HGEN's Verilog writer keeps only its emission,
// one case per entry.
// push and pop are stack effects, not operators, and stay outside it.

// Form is how an operator is written.
type Form int

const (
	FormUnary  Form = iota + 1 // op x
	FormBinary                 // x op y
	FormCall                   // name(x, y, ...)
)

// WidthRule is how the semantic pass types an operator's operands and
// result.
type WidthRule int

const (
	// SameWidth operands unify to one width, an unsized literal taking the
	// other operand's; the result has that width. Over unsized literals
	// only, the result stays unsized until its context sizes it.
	SameWidth WidthRule = iota + 1
	// OneBit operands unify as for SameWidth, and at least one has a
	// definite width; the result is one bit. The bare comparisons are
	// unsigned; slt, sle, sgt and sge compare signed.
	OneBit
	// Shift keeps the left operand's width, which must be definite. The
	// amount may have any width (an unsized one is 32 bits) and counts
	// with its full unsigned value: an amount at or beyond the width
	// shifts every bit out, leaving 0, or all sign bits for asr.
	Shift
	// WidthLiteral calls take a value of definite width and a plain
	// decimal constant, the result width (sext, zext, trunc).
	WidthLiteral
	// SumOfWidths calls take Arity or more values of definite width and
	// concatenate them, the first most significant.
	SumOfWidths
	// Logical operands are tested for non-zero, an unsized literal being
	// one bit wide; the result is one bit. A binary logical operator
	// evaluates its right operand only when the left does not decide.
	Logical
)

// Circuit is the HGEN circuit class an operator node maps to (§4.1.2).
type Circuit int

const (
	// Wiring needs no functional unit: extension, truncation and
	// concatenation.
	Wiring Circuit = iota
	CircuitAdd
	CircuitSub
	CircuitMul
	CircuitDiv
	CircuitLogic
	CircuitShift
	CircuitCmp
)

var circuitNames = [...]string{"wiring", "add", "sub", "mul", "div", "logic", "shift", "cmp"}

func (c Circuit) String() string { return circuitNames[c] }

// Operator is one entry of the operator table. Expression nodes point at
// their entry (Unary.Def, Binary.Def, Call.Def).
type Operator struct {
	Name  string // the spelling: "+", "asr"
	Form  Form
	Prec  int // binding power of a binary operator; higher binds tighter
	Arity int // operand count; the least count for SumOfWidths
	Width WidthRule
	// Eval is the value on bitvec of operands x and y with result width
	// w. y is the zero Value for a one-operand form and for a logical
	// operator whose left operand decides. A call of more than two
	// operands folds left, one pair at a time.
	Eval func(x, y bitvec.Value, w int) bitvec.Value
	// Decides, for && and ||, reports whether the left operand alone
	// decides the result; nil for every other operator.
	Decides func(x bitvec.Value) bool
	Circuit Circuit
}

// shiftAmountWidth is the width of an unsized shift amount.
const shiftAmountWidth = 32

var operators = [...]Operator{
	{Name: "-", Form: FormUnary, Arity: 1, Width: SameWidth, Circuit: CircuitSub,
		Eval: func(x, _ bitvec.Value, _ int) bitvec.Value { return x.Neg() }},
	{Name: "~", Form: FormUnary, Arity: 1, Width: SameWidth, Circuit: CircuitLogic,
		Eval: func(x, _ bitvec.Value, _ int) bitvec.Value { return x.Not() }},
	{Name: "!", Form: FormUnary, Arity: 1, Width: Logical, Circuit: CircuitLogic,
		Eval: func(x, _ bitvec.Value, _ int) bitvec.Value { return bit(x.IsZero()) }},

	{Name: "||", Form: FormBinary, Prec: 1, Arity: 2, Width: Logical, Circuit: CircuitLogic,
		Eval:    func(x, y bitvec.Value, _ int) bitvec.Value { return bit(!x.IsZero() || !y.IsZero()) },
		Decides: func(x bitvec.Value) bool { return !x.IsZero() }},
	{Name: "&&", Form: FormBinary, Prec: 2, Arity: 2, Width: Logical, Circuit: CircuitLogic,
		Eval:    func(x, y bitvec.Value, _ int) bitvec.Value { return bit(!x.IsZero() && !y.IsZero()) },
		Decides: func(x bitvec.Value) bool { return x.IsZero() }},
	{Name: "|", Form: FormBinary, Prec: 3, Arity: 2, Width: SameWidth, Circuit: CircuitLogic,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Or(y) }},
	{Name: "^", Form: FormBinary, Prec: 4, Arity: 2, Width: SameWidth, Circuit: CircuitLogic,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Xor(y) }},
	{Name: "&", Form: FormBinary, Prec: 5, Arity: 2, Width: SameWidth, Circuit: CircuitLogic,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.And(y) }},
	{Name: "==", Form: FormBinary, Prec: 6, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.Eq(y)) }},
	{Name: "!=", Form: FormBinary, Prec: 6, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(!x.Eq(y)) }},
	{Name: "<", Form: FormBinary, Prec: 7, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpU(y) < 0) }},
	{Name: "<=", Form: FormBinary, Prec: 7, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpU(y) <= 0) }},
	{Name: ">", Form: FormBinary, Prec: 7, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpU(y) > 0) }},
	{Name: ">=", Form: FormBinary, Prec: 7, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpU(y) >= 0) }},
	{Name: "<<", Form: FormBinary, Prec: 8, Arity: 2, Width: Shift, Circuit: CircuitShift,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Shl(y.Amount()) }},
	{Name: ">>", Form: FormBinary, Prec: 8, Arity: 2, Width: Shift, Circuit: CircuitShift,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.ShrL(y.Amount()) }},
	{Name: "+", Form: FormBinary, Prec: 9, Arity: 2, Width: SameWidth, Circuit: CircuitAdd,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Add(y) }},
	{Name: "-", Form: FormBinary, Prec: 9, Arity: 2, Width: SameWidth, Circuit: CircuitSub,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Sub(y) }},
	{Name: "*", Form: FormBinary, Prec: 10, Arity: 2, Width: SameWidth, Circuit: CircuitMul,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Mul(y) }},
	// Division by zero gives all ones and remainder by zero the dividend.
	{Name: "/", Form: FormBinary, Prec: 10, Arity: 2, Width: SameWidth, Circuit: CircuitDiv,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.DivU(y) }},
	{Name: "%", Form: FormBinary, Prec: 10, Arity: 2, Width: SameWidth, Circuit: CircuitDiv,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.ModU(y) }},

	{Name: "sext", Form: FormCall, Arity: 2, Width: WidthLiteral, Circuit: Wiring,
		Eval: func(x, _ bitvec.Value, w int) bitvec.Value { return x.SignExt(w) }},
	{Name: "zext", Form: FormCall, Arity: 2, Width: WidthLiteral, Circuit: Wiring,
		Eval: func(x, _ bitvec.Value, w int) bitvec.Value { return x.ZeroExt(w) }},
	{Name: "trunc", Form: FormCall, Arity: 2, Width: WidthLiteral, Circuit: Wiring,
		Eval: func(x, _ bitvec.Value, w int) bitvec.Value { return x.Trunc(w) }},
	{Name: "carry", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitAdd,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { _, c := x.AddCarry(y); return bit(c) }},
	{Name: "borrow", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitSub,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { _, b := x.SubBorrow(y); return bit(b) }},
	{Name: "addov", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitAdd,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value {
			return bit(x.Sign() == y.Sign() && x.Add(y).Sign() != x.Sign())
		}},
	{Name: "subov", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitSub,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value {
			return bit(x.Sign() != y.Sign() && x.Sub(y).Sign() != x.Sign())
		}},
	{Name: "slt", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpS(y) < 0) }},
	{Name: "sle", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpS(y) <= 0) }},
	{Name: "sgt", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpS(y) > 0) }},
	{Name: "sge", Form: FormCall, Arity: 2, Width: OneBit, Circuit: CircuitCmp,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return bit(x.CmpS(y) >= 0) }},
	{Name: "asr", Form: FormCall, Arity: 2, Width: Shift, Circuit: CircuitShift,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.ShrA(y.Amount()) }},
	{Name: "concat", Form: FormCall, Arity: 2, Width: SumOfWidths, Circuit: Wiring,
		Eval: func(x, y bitvec.Value, _ int) bitvec.Value { return x.Concat(y) }},
}

// byFirst indexes the table by form and the first byte of the spelling:
// the parser looks up every punctuation token after an operand, and most
// (";", ")", ",") start no operator.
var byFirst = func() (t [FormCall + 1][256][]*Operator) {
	for i := range operators {
		o := &operators[i]
		t[o.Form][o.Name[0]] = append(t[o.Form][o.Name[0]], o)
	}
	return t
}()

// Operators returns every entry of the operator table, in table order.
func Operators() []*Operator {
	out := make([]*Operator, len(operators))
	for i := range operators {
		out[i] = &operators[i]
	}
	return out
}

// lookupOp returns the entry written name in form f, or nil.
func lookupOp(f Form, name string) *Operator {
	if name == "" {
		return nil
	}
	for _, o := range byFirst[f][name[0]] {
		if o.Name == name {
			return o
		}
	}
	return nil
}

func bit(b bool) bitvec.Value {
	if b {
		return bitvec.FromUint64(1, 1)
	}
	return bitvec.New(1)
}

// Operands returns a call's value operands: every argument but the width
// literal of a WidthLiteral call.
func (e *Call) Operands() []Expr {
	if e.Def != nil && e.Def.Width == WidthLiteral {
		return e.Args[:1]
	}
	return e.Args
}
