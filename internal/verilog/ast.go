// Package verilog implements the synthesizable-Verilog subset that the HGEN
// hardware synthesis system emits (paper §4), together with a parser and an
// event-driven two-value simulator for it.
//
// The paper evaluates the generated hardware model with Cadence Verilog-XL
// (Table 1); this repository has no commercial simulator, so the emitted
// text is parsed back in and run by the event-driven simulator in sim.go.
// Parse builds the syntax tree only. NewSim elaborates the parsed module
// once: it is the one place that resolves names and widths and rejects an
// ill-formed model, resolving every net to a slot and compiling every
// expression and statement, so the running simulator looks up no name.
// Its event schedule is unchanged by that compilation and reproduces the
// cost structure that makes HDL simulation slow relative to an
// instruction-level simulator: per-net events, sensitivity lists, and
// re-evaluation to a fixpoint every cycle. As the paper notes, "the
// synthesizable Verilog model is itself a simulator".
package verilog

import (
	"repro/internal/bitvec"
)

// PortDir is a port direction.
type PortDir int

const (
	// In is an input port.
	In PortDir = iota
	// Out is an output port.
	Out
)

// Port is a module port.
type Port struct {
	Name  string
	Dir   PortDir
	Width int
}

// Net is a wire or register declaration; Depth > 0 declares a memory.
type Net struct {
	Name  string
	Width int
	Reg   bool
	Depth int // 0 for scalars
}

// Module is one synthesizable module.
type Module struct {
	Name    string
	Ports   []Port
	Nets    []Net
	Assigns []Assign
	Always  []Always
}

// NetByName returns the declaration (port or net) width and whether the name
// exists.
func (m *Module) NetByName(name string) (width, depth int, ok bool) {
	for _, p := range m.Ports {
		if p.Name == name {
			return p.Width, 0, true
		}
	}
	for _, n := range m.Nets {
		if n.Name == name {
			return n.Width, n.Depth, true
		}
	}
	return 0, 0, false
}

// Assign is a continuous assignment.
type Assign struct {
	LHS LValue
	RHS Expr
}

// Always is a sequential block: always @(posedge Clock).
type Always struct {
	Clock string
	Stmts []Stmt
}

// Stmt is a statement inside an always block.
type Stmt interface{ vstmt() }

// NBAssign is a non-blocking assignment "lhs <= rhs;".
type NBAssign struct {
	LHS LValue
	RHS Expr
}

// BAssign is a blocking assignment "lhs = rhs;" inside an always block; the
// generated processor models use blocking assignments with explicit
// temporaries to reproduce the two-phase read/write semantics of §3.3.3.
type BAssign struct {
	LHS LValue
	RHS Expr
}

// If is "if (cond) begin … end [else begin … end]".
type If struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
}

func (*NBAssign) vstmt() {}
func (*BAssign) vstmt()  {}
func (*If) vstmt()       {}

// LValue is an assignment destination.
type LValue interface{ vlval() }

// NetL names a whole net.
type NetL struct{ Name string }

// IndexL is one memory word: Name[Idx].
type IndexL struct {
	Name string
	Idx  Expr
}

// SliceL is a bit range of a net: Name[Hi:Lo].
type SliceL struct {
	Name   string
	Hi, Lo int
}

func (*NetL) vlval()   {}
func (*IndexL) vlval() {}
func (*SliceL) vlval() {}

// Expr is a Verilog expression. The W fields of Ref, Index, Unary, Binary,
// Ternary and ConcatE are widths in bits for HGEN, which sets them while it
// builds a module and reads them back through Width. Parse leaves them at
// zero, and NewSim never reads them: it computes every width itself.
type Expr interface{ vexpr() }

// Const is a sized literal.
type Const struct{ Val bitvec.Value }

// Ref reads a whole net.
type Ref struct {
	Name string
	W    int
}

// Index reads one memory word.
type Index struct {
	Name string
	Idx  Expr
	W    int
}

// Slice reads a static bit range of an expression.
type Slice struct {
	X      Expr
	Hi, Lo int
}

// Unary applies ~, !, - or the reduction OR "|".
type Unary struct {
	Op string
	X  Expr
	W  int
}

// Binary applies a two-operand operator.
type Binary struct {
	Op   string
	X, Y Expr
	W    int
}

// Ternary is "c ? a : b".
type Ternary struct {
	C, A, B Expr
	W       int
}

// ConcatE is "{a, b, …}" with the first element most significant.
type ConcatE struct {
	Parts []Expr
	W     int
}

func (*Const) vexpr()   {}
func (*Ref) vexpr()     {}
func (*Index) vexpr()   {}
func (*Slice) vexpr()   {}
func (*Unary) vexpr()   {}
func (*Binary) vexpr()  {}
func (*Ternary) vexpr() {}
func (*ConcatE) vexpr() {}

// Width returns the width of an expression as its builder recorded it. On
// a parsed module the W fields are zero, so only a constant's and a
// slice's width is known.
func Width(e Expr) int {
	switch e := e.(type) {
	case *Const:
		return e.Val.Width()
	case *Ref:
		return e.W
	case *Index:
		return e.W
	case *Slice:
		return e.Hi - e.Lo + 1
	case *Unary:
		return e.W
	case *Binary:
		return e.W
	case *Ternary:
		return e.W
	case *ConcatE:
		return e.W
	}
	return 0
}
