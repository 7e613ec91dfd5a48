// Package hgen is the HGEN hardware synthesis system of the paper (§4): it
// compiles an ISDL description into a hardware implementation model —
// synthesizable Verilog plus die size, cycle length and power estimates
// against a technology library. It implements the resource-sharing
// formulation of §4.1.1–4.1.2 (compatibility matrix + maximal cliques,
// Figure 5), the structural inference of §4.1.3 (pipeline depth and bypass
// from the Cycle/Stall/Latency costs), and the decode-logic generation of
// §4.2 (the same signatures that drive the GENSIM disassembler).
package hgen

import (
	"fmt"

	"repro/internal/isdl"
)

// unitClass groups circuit classes that can share one functional unit
// (sharing rule 2, with the add⊂sub subsumption: an add is a subset of a
// subtract, so they share an add/sub unit).
func unitClass(c isdl.Circuit) string {
	switch c {
	case isdl.CircuitAdd, isdl.CircuitSub:
		return "addsub"
	default:
		return c.String()
	}
}

// Node is one numbered RTL node.
type Node struct {
	ID int
	// Kind is the circuit the node maps to (§4.1.2: "we break up the RTL
	// expressions for all operation definitions into a number of nodes,
	// each of which can be mapped to a circuit").
	Kind  isdl.Circuit
	Width int
	// Op owns the node; Stmt is the statement ordinal within the owner
	// (sharing rule 1 forbids sharing within one statement, and nodes of
	// one operation are all live in the same cycle).
	Op   *isdl.Operation
	Stmt int
	// ParamPath is non-empty for nodes contributed by a non-terminal
	// option: "param/optionIndex". Nodes from different options of the
	// same parameter are mutually exclusive and may share.
	ParamPath string
	OptionIdx int // -1 when not from an option
}

func (n *Node) String() string {
	p := ""
	if n.ParamPath != "" {
		p = " " + n.ParamPath
	}
	return fmt.Sprintf("n%d %s%d %s%s", n.ID, n.Kind, n.Width, n.Op.QualName(), p)
}

// extractNodes numbers every circuit-mappable node of every operation
// (actions, side effects, and the value/side-effect RTL of each reachable
// non-terminal option).
func extractNodes(d *isdl.Description) []*Node {
	var nodes []*Node
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			x := &extractor{nodes: &nodes, op: op, optionIdx: -1}
			x.stmts(op.Action)
			x.stmts(op.SideEffect)
			for _, prm := range op.Params {
				if prm.NT != nil {
					extractNTNodes(&nodes, op, prm.Name, prm.NT)
				}
			}
		}
	}
	for i, n := range nodes {
		n.ID = i
	}
	return nodes
}

func extractNTNodes(nodes *[]*Node, op *isdl.Operation, path string, nt *isdl.NonTerminal) {
	for _, opt := range nt.Options {
		x := &extractor{
			nodes:     nodes,
			op:        op,
			paramPath: fmt.Sprintf("%s/%d", path, opt.Index),
			optionIdx: opt.Index,
		}
		x.expr(opt.Value)
		x.stmts(opt.SideEffect)
		for _, prm := range opt.Params {
			if prm.NT != nil {
				extractNTNodes(nodes, op, fmt.Sprintf("%s/%d/%s", path, opt.Index, prm.Name), prm.NT)
			}
		}
	}
}

type extractor struct {
	nodes     *[]*Node
	op        *isdl.Operation
	stmt      int
	paramPath string
	optionIdx int
}

func (x *extractor) add(kind isdl.Circuit, width int) {
	if kind == isdl.Wiring {
		return
	}
	*x.nodes = append(*x.nodes, &Node{
		Kind: kind, Width: width, Op: x.op, Stmt: x.stmt,
		ParamPath: x.paramPath, OptionIdx: x.optionIdx,
	})
}

func (x *extractor) stmts(stmts []isdl.Stmt) {
	for _, s := range stmts {
		switch s := s.(type) {
		case *isdl.Assign:
			x.expr(s.RHS)
			x.expr(s.LHS)
		case *isdl.If:
			x.expr(s.Cond)
			x.stmts(s.Then)
			x.stmts(s.Else)
		case *isdl.ExprStmt:
			x.expr(s.X)
		}
		x.stmt++
	}
}

// expr adds a node for each operator of e that maps to a circuit, sized by
// its operands (a comparison yields one bit but its circuit is as wide as
// its inputs); a unary node and a binary logical one are sized by their
// result.
func (x *extractor) expr(e isdl.Expr) {
	isdl.WalkExpr(e, func(e isdl.Expr) {
		switch e := e.(type) {
		case *isdl.Unary:
			x.add(e.Def.Circuit, max(e.Width(), 1))
		case *isdl.Binary:
			if e.Def.Width == isdl.Logical {
				x.add(e.Def.Circuit, 1)
			} else {
				x.add(e.Def.Circuit, opWidth(e))
			}
		case *isdl.Call:
			if e.Def != nil {
				x.add(e.Def.Circuit, argWidth(e))
			}
		}
	})
}

// opWidth is the operand width of a binary node (comparisons produce one
// bit but the circuit is sized by its inputs).
func opWidth(e *isdl.Binary) int {
	w := e.X.Width()
	if e.Y.Width() > w {
		w = e.Y.Width()
	}
	if w == 0 {
		w = 1
	}
	return w
}

func argWidth(e *isdl.Call) int {
	w := 1
	for _, a := range e.Args {
		if a.Width() > w {
			w = a.Width()
		}
	}
	return w
}
