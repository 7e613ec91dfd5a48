package isdl

import (
	"fmt"
	"strings"

	"repro/internal/bitvec"
)

// This file defines the RTL expression and statement AST used by operation
// actions and side effects (§2.1.3 parts 3–4). The same AST is interpreted
// by the simulator (internal/xsim) and compiled to hardware nodes by the
// synthesis system (internal/hgen) — the paper's single-description
// methodology.

// Expr is an RTL expression. Width() is valid after the semantic pass.
type Expr interface {
	Pos() Pos
	// Width is the expression's bit width; 0 for untyped literals before
	// width inference resolves them.
	Width() int
	String() string
	exprNode()
}

// Stmt is an RTL statement.
type Stmt interface {
	Pos() Pos
	String() string
	stmtNode()
}

// Lit is a literal. Sized literals (0b…, n'h…) carry an explicit width;
// unsized decimal literals adapt to their context during width inference.
type Lit struct {
	At    Pos
	Val   bitvec.Value
	Sized bool
	// Dec is the original decimal magnitude for unsized literals; Neg its
	// sign. The semantic pass materializes Val at the inferred width.
	Dec uint64
	Neg bool
}

// Ref names a storage element, an alias, or a parameter.
type Ref struct {
	At   Pos
	Name string

	// Resolved by the semantic pass: exactly one of the following.
	Storage *Storage
	AliasTo *Alias
	Param   *Param
	W       int
}

// Index is an addressed storage access: Name[Idx].
type Index struct {
	At      Pos
	Name    string
	Idx     Expr
	Storage *Storage
	W       int
}

// SliceE extracts bits [Hi:Lo] of X; bounds are static, per ISDL bitfield
// style.
type SliceE struct {
	At     Pos
	X      Expr
	Hi, Lo int
}

// Unary applies a unary operator of the operator table (ops.go) to X.
type Unary struct {
	At  Pos
	Op  string
	Def *Operator // the table entry, set by the parser
	X   Expr
	W   int
}

// Binary applies a binary operator of the operator table (ops.go).
type Binary struct {
	At   Pos
	Op   string
	Def  *Operator // the table entry, set by the parser
	X, Y Expr
	W    int
}

// Call invokes a builtin: a call-form entry of the operator table (ops.go),
// or the stack effects push and pop.
type Call struct {
	At   Pos
	Fn   string
	Def  *Operator // the table entry, set by the semantic pass; nil for push and pop
	Args []Expr
	W    int
}

func (e *Lit) Pos() Pos    { return e.At }
func (e *Ref) Pos() Pos    { return e.At }
func (e *Index) Pos() Pos  { return e.At }
func (e *SliceE) Pos() Pos { return e.At }
func (e *Unary) Pos() Pos  { return e.At }
func (e *Binary) Pos() Pos { return e.At }
func (e *Call) Pos() Pos   { return e.At }

func (e *Lit) Width() int {
	if e.Sized {
		return e.Val.Width()
	}
	return e.Val.Width() // materialized during inference; 0 before
}
func (e *Ref) Width() int    { return e.W }
func (e *Index) Width() int  { return e.W }
func (e *SliceE) Width() int { return e.Hi - e.Lo + 1 }
func (e *Unary) Width() int  { return e.W }
func (e *Binary) Width() int { return e.W }
func (e *Call) Width() int   { return e.W }

func (e *Lit) String() string {
	if !e.Sized && e.Val.Width() == 0 {
		if e.Neg {
			return fmt.Sprintf("-%d", e.Dec)
		}
		return fmt.Sprintf("%d", e.Dec)
	}
	return e.Val.String()
}
func (e *Ref) String() string   { return e.Name }
func (e *Index) String() string { return fmt.Sprintf("%s[%s]", e.Name, e.Idx) }
func (e *SliceE) String() string {
	return fmt.Sprintf("%s[%d:%d]", e.X, e.Hi, e.Lo)
}
func (e *Unary) String() string  { return fmt.Sprintf("%s%s", e.Op, e.X) }
func (e *Binary) String() string { return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y) }
func (e *Call) String() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Fn, strings.Join(args, ", "))
}

func (*Lit) exprNode()    {}
func (*Ref) exprNode()    {}
func (*Index) exprNode()  {}
func (*SliceE) exprNode() {}
func (*Unary) exprNode()  {}
func (*Binary) exprNode() {}
func (*Call) exprNode()   {}

// Assign is "lvalue <- expr;". The LHS must resolve to a storage location
// (possibly through a non-terminal parameter whose value is a location).
type Assign struct {
	At  Pos
	LHS Expr
	RHS Expr
}

// If guards statements on a 1-bit (or truthiness-tested) condition.
type If struct {
	At   Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// ExprStmt evaluates an expression for its effect (push/pop builtins).
type ExprStmt struct {
	At Pos
	X  Expr
}

func (s *Assign) Pos() Pos   { return s.At }
func (s *If) Pos() Pos       { return s.At }
func (s *ExprStmt) Pos() Pos { return s.At }

func (s *Assign) String() string { return fmt.Sprintf("%s <- %s;", s.LHS, s.RHS) }
func (s *If) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "if (%s) { ", s.Cond)
	for _, st := range s.Then {
		sb.WriteString(st.String())
		sb.WriteByte(' ')
	}
	sb.WriteString("}")
	if len(s.Else) > 0 {
		sb.WriteString(" else { ")
		for _, st := range s.Else {
			sb.WriteString(st.String())
			sb.WriteByte(' ')
		}
		sb.WriteString("}")
	}
	return sb.String()
}
func (s *ExprStmt) String() string { return s.X.String() + ";" }

func (*Assign) stmtNode()   {}
func (*If) stmtNode()       {}
func (*ExprStmt) stmtNode() {}

// WalkExprs calls fn for every expression in the statement list, including
// nested sub-expressions (parents after children).
func WalkExprs(stmts []Stmt, fn func(Expr)) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *Assign:
			walkExpr(s.LHS, fn)
			walkExpr(s.RHS, fn)
		case *If:
			walkExpr(s.Cond, fn)
			WalkExprs(s.Then, fn)
			WalkExprs(s.Else, fn)
		case *ExprStmt:
			walkExpr(s.X, fn)
		}
	}
}

func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *Index:
		walkExpr(e.Idx, fn)
	case *SliceE:
		walkExpr(e.X, fn)
	case *Unary:
		walkExpr(e.X, fn)
	case *Binary:
		walkExpr(e.X, fn)
		walkExpr(e.Y, fn)
	case *Call:
		for _, a := range e.Args {
			walkExpr(a, fn)
		}
	}
	fn(e)
}

// WalkExpr exposes walkExpr for single expressions.
func WalkExpr(e Expr, fn func(Expr)) { walkExpr(e, fn) }
