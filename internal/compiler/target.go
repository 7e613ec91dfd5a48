package compiler

import (
	"fmt"

	"repro/internal/isdl"
)

// This file classifies the operations of an ISDL description into the
// code-generation primitives the backend needs, by matching their RTL
// behaviour — the instruction-selection knowledge AVIV derives from the
// description rather than from hand-written tables.

// Operand describes how an operation names one of its source operands.
type Operand struct {
	Param int
	// Direct register token (RF[r] appears with r a token parameter).
	DirectReg bool
	// Direct immediate token (the operand is (an extension of) an Imm
	// token parameter, RISC style).
	DirectImm bool
	// Non-terminal with a register option and possibly an immediate
	// option.
	RegOption *isdl.Option
	RegSub    int
	ImmOption *isdl.Option
	ImmSub    int
	ImmTok    *isdl.Token
}

// HasImm reports whether the operand can encode an immediate.
func (o *Operand) HasImm() bool { return o.DirectImm || o.ImmOption != nil }

// MachBin is a three-address ALU operation RF[d] <- RF[a] sym B.
type MachBin struct {
	Op   *isdl.Operation
	Sym  string
	Dst  int
	A, B Operand
}

// MachMov is RF[d] <- src (register or immediate through a non-terminal).
type MachMov struct {
	Op  *isdl.Operation
	Dst int
	Src Operand
}

// MachLoad is RF[d] <- MEM[addr] with either register-indirect addressing
// (MEM[RF[a]]) or address-register addressing through a non-terminal option
// (MEM[AR[a]]).
type MachLoad struct {
	Op  *isdl.Operation
	Dst int
	Mem string

	RegAddrParam int // -1 when AR-addressed
	// OffParam is the immediate-offset parameter of MEM[RF[a] + off]
	// addressing (RISC style); -1 when the operation has no offset. The
	// code generator passes 0.
	OffParam int

	MemParam  int
	AROption  *isdl.Option
	ARSub     int
	ARStorage string
}

// MachStore is the mirror of MachLoad.
type MachStore struct {
	Op  *isdl.Operation
	Val int
	Mem string

	RegAddrParam int
	OffParam     int // see MachLoad.OffParam

	MemParam  int
	AROption  *isdl.Option
	ARSub     int
	ARStorage string
}

// MachSetAR writes an address register from a general register.
type MachSetAR struct {
	Op        *isdl.Operation
	ARStorage string
	ARParam   int
	SrcParam  int
}

// BranchKind classifies branch primitives.
type BranchKind int

const (
	// BrEQPair branches when two registers are equal.
	BrEQPair BranchKind = iota
	// BrZ branches when a register is zero.
	BrZ
	// BrNZ branches when a register is non-zero.
	BrNZ
)

// MachBranch is a conditional branch primitive.
type MachBranch struct {
	Op     *isdl.Operation
	Kind   BranchKind
	A, B   int // register params (B = -1 for BrZ/BrNZ)
	Target int
}

// MachJump is an unconditional jump; MachHalt stops the machine.
type MachJump struct {
	Op     *isdl.Operation
	Target int
}

// MachHalt names the halt operation.
type MachHalt struct{ Op *isdl.Operation }

// Target is the classified code-generation model of one machine.
type Target struct {
	D  *isdl.Description
	RF *isdl.Storage

	Bins   map[string][]*MachBin
	Movs   []*MachMov
	Loads  map[string][]*MachLoad  // by memory storage
	Stores map[string][]*MachStore // by memory storage
	SetARs map[string][]*MachSetAR // by AR storage

	Branches []*MachBranch
	Jump     *MachJump
	Halt     *MachHalt
}

// NewTarget classifies a description. It tries every register file and
// keeps the one that yields the richest operation set.
func NewTarget(d *isdl.Description) (*Target, error) {
	var best *Target
	bestScore := -1
	for _, st := range d.Storage {
		if st.Kind != isdl.StRegFile {
			continue
		}
		t := classify(d, st)
		score := len(t.Movs) + len(t.Branches)
		for _, b := range t.Bins {
			score += len(b)
		}
		for _, l := range t.Loads {
			score += len(l)
		}
		if score > bestScore {
			best, bestScore = t, score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("compiler: %s has no register file", d.Name)
	}
	if err := best.validate(); err != nil {
		return nil, err
	}
	return best, nil
}

func (t *Target) validate() error {
	missing := func(what string) error {
		return fmt.Errorf("compiler: %s: no usable %s operation", t.D.Name, what)
	}
	hasMovImm := false
	for _, m := range t.Movs {
		if m.Src.HasImm() {
			hasMovImm = true
		}
	}
	if !hasMovImm {
		return missing("move-immediate")
	}
	if len(t.Bins["+"]) == 0 || len(t.Bins["-"]) == 0 {
		return missing("add/sub")
	}
	if t.Jump == nil {
		return missing("jump")
	}
	if t.Halt == nil {
		return missing("halt")
	}
	if len(t.Branches) == 0 {
		return missing("conditional branch")
	}
	return nil
}

func classify(d *isdl.Description, rf *isdl.Storage) *Target {
	t := &Target{
		D: d, RF: rf,
		Bins:   map[string][]*MachBin{},
		Loads:  map[string][]*MachLoad{},
		Stores: map[string][]*MachStore{},
		SetARs: map[string][]*MachSetAR{},
	}
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			t.classifyOp(op)
		}
	}
	return t
}

// --- RTL pattern helpers -------------------------------------------------

// regIndexParam matches Index{rf, Ref{token param}} and returns the
// parameter index.
func regIndexParam(e isdl.Expr, rf *isdl.Storage, params []*isdl.Param) (int, bool) {
	ix, ok := e.(*isdl.Index)
	if !ok || ix.Storage != rf {
		return 0, false
	}
	ref, ok := ix.Idx.(*isdl.Ref)
	if !ok || ref.Param == nil || ref.Param.Token == nil {
		return 0, false
	}
	return paramIndex(params, ref.Param), true
}

func paramIndex(params []*isdl.Param, p *isdl.Param) int {
	for i := range params {
		if params[i] == p {
			return i
		}
	}
	return -1
}

// unwrapExt strips sext/zext/trunc wrappers.
func unwrapExt(e isdl.Expr) isdl.Expr {
	for {
		c, ok := e.(*isdl.Call)
		if !ok {
			return e
		}
		switch c.Fn {
		case "sext", "zext", "trunc":
			e = c.Args[0]
		default:
			return e
		}
	}
}

// classifyOperand matches a source operand: a direct register read or a
// non-terminal whose options are register/immediate.
func (t *Target) classifyOperand(e isdl.Expr, params []*isdl.Param) (Operand, bool) {
	if pi, ok := regIndexParam(e, t.RF, params); ok {
		return Operand{Param: pi, DirectReg: true}, true
	}
	if ref, ok := unwrapExt(e).(*isdl.Ref); ok && ref.Param != nil && ref.Param.Token != nil && ref.Param.Token.Kind == isdl.TokImm {
		return Operand{Param: paramIndex(params, ref.Param), DirectImm: true, ImmTok: ref.Param.Token}, true
	}
	ref, ok := e.(*isdl.Ref)
	if !ok || ref.Param == nil || ref.Param.NT == nil {
		return Operand{}, false
	}
	o := Operand{Param: paramIndex(params, ref.Param)}
	for _, opt := range ref.Param.NT.Options {
		if len(opt.SideEffect) > 0 {
			continue // post-increment variants are not plain operands
		}
		if pi, ok := regIndexParam(opt.Value, t.RF, opt.Params); ok {
			if o.RegOption == nil {
				o.RegOption, o.RegSub = opt, pi
			}
			continue
		}
		v := unwrapExt(opt.Value)
		if sub, ok := v.(*isdl.Ref); ok && sub.Param != nil && sub.Param.Token != nil && sub.Param.Token.Kind == isdl.TokImm {
			if o.ImmOption == nil {
				o.ImmOption, o.ImmSub, o.ImmTok = opt, paramIndex(opt.Params, sub.Param), sub.Param.Token
			}
		}
	}
	if o.RegOption == nil && o.ImmOption == nil {
		return Operand{}, false
	}
	return o, true
}

// regOffsetAddr matches a memory index of the form RF[a] or
// RF[a] + sext(off), returning the register parameter and the offset
// parameter (-1 when absent).
func (t *Target) regOffsetAddr(idx isdl.Expr, params []*isdl.Param) (addr, off int, ok bool) {
	if a, isReg := regIndexParam(idx, t.RF, params); isReg {
		return a, -1, true
	}
	bin, isBin := idx.(*isdl.Binary)
	if !isBin || bin.Op != "+" {
		return 0, 0, false
	}
	a, okA := regIndexParam(bin.X, t.RF, params)
	if !okA {
		return 0, 0, false
	}
	ref, okR := unwrapExt(bin.Y).(*isdl.Ref)
	if !okR || ref.Param == nil || ref.Param.Token == nil || ref.Param.Token.Kind != isdl.TokImm {
		return 0, 0, false
	}
	return a, paramIndex(params, ref.Param), true
}

// memNTOption matches a non-terminal whose plain option reads
// MEM[AR[a]]; returns the option, the AR parameter within it, and the
// memory/AR storages.
func memNTOption(nt *isdl.NonTerminal) (opt *isdl.Option, arSub int, mem, ar string, ok bool) {
	for _, o := range nt.Options {
		if len(o.SideEffect) > 0 {
			continue
		}
		ix, isIx := o.Value.(*isdl.Index)
		if !isIx {
			continue
		}
		inner, isInner := ix.Idx.(*isdl.Index)
		if !isInner {
			continue
		}
		ref, isRef := inner.Idx.(*isdl.Ref)
		if !isRef || ref.Param == nil || ref.Param.Token == nil {
			continue
		}
		return o, paramIndex(o.Params, ref.Param), ix.Storage.Name, inner.Storage.Name, true
	}
	return nil, 0, "", "", false
}

func (t *Target) classifyOp(op *isdl.Operation) {
	// Branch shapes: a single If whose then-branch writes the PC.
	if len(op.Action) == 1 {
		if ifs, ok := op.Action[0].(*isdl.If); ok && len(ifs.Else) == 0 && len(ifs.Then) == 1 {
			t.classifyBranch(op, ifs)
			return
		}
	}
	if len(op.Action) != 1 {
		return
	}
	asg, ok := op.Action[0].(*isdl.Assign)
	if !ok {
		return
	}

	// Halt: a non-zero constant into a control register.
	if ref, ok := asg.LHS.(*isdl.Ref); ok && ref.Storage != nil {
		switch ref.Storage.Kind {
		case isdl.StControlRegister:
			if lit, ok := asg.RHS.(*isdl.Lit); ok && !lit.Val.IsZero() && t.Halt == nil {
				t.Halt = &MachHalt{Op: op}
			}
			return
		case isdl.StProgramCounter:
			if r, ok := asg.RHS.(*isdl.Ref); ok && r.Param != nil && r.Param.Token != nil && r.Param.Token.Kind == isdl.TokImm && t.Jump == nil {
				t.Jump = &MachJump{Op: op, Target: paramIndex(op.Params, r.Param)}
			}
			return
		}
	}

	// Destination RF[d]?
	if dst, ok := regIndexParam(asg.LHS, t.RF, op.Params); ok {
		switch rhs := asg.RHS.(type) {
		case *isdl.Binary:
			a, okA := t.classifyOperand(rhs.X, op.Params)
			b, okB := t.classifyOperand(rhs.Y, op.Params)
			if okA && okB && benignSideEffects(op) {
				t.Bins[rhs.Op] = append(t.Bins[rhs.Op], &MachBin{Op: op, Sym: rhs.Op, Dst: dst, A: a, B: b})
			}
			return
		case *isdl.Index:
			// A register-file read is a register move (mv Rd, Rs), not a
			// load — machines whose only untyped move is the reg-reg form
			// (no addi to synthesize one) need it classified.
			if src, ok := t.classifyOperand(rhs, op.Params); ok && src.DirectReg && benignSideEffects(op) {
				t.Movs = append(t.Movs, &MachMov{Op: op, Dst: dst, Src: src})
				return
			}
			// Register-indirect load: RF[d] <- MEM[RF[a]], possibly with an
			// immediate offset (RISC style): MEM[RF[a] + sext(off, …)].
			if a, off, ok := t.regOffsetAddr(rhs.Idx, op.Params); ok {
				t.Loads[rhs.Name] = append(t.Loads[rhs.Name], &MachLoad{
					Op: op, Dst: dst, Mem: rhs.Name, RegAddrParam: a, OffParam: off, MemParam: -1,
				})
			}
			return
		case *isdl.Ref:
			if rhs.Param != nil && rhs.Param.NT != nil {
				// AR-addressed load?
				if opt, arSub, mem, ar, ok := memNTOption(rhs.Param.NT); ok {
					t.Loads[mem] = append(t.Loads[mem], &MachLoad{
						Op: op, Dst: dst, Mem: mem, RegAddrParam: -1,
						MemParam: paramIndex(op.Params, rhs.Param), AROption: opt, ARSub: arSub, ARStorage: ar,
					})
					return
				}
			}
			if src, ok := t.classifyOperand(asg.RHS, op.Params); ok {
				t.Movs = append(t.Movs, &MachMov{Op: op, Dst: dst, Src: src})
			}
			return
		default:
			// Extension-wrapped immediates (RISC li: RF[d] <- sext(i, w)).
			if src, ok := t.classifyOperand(asg.RHS, op.Params); ok {
				t.Movs = append(t.Movs, &MachMov{Op: op, Dst: dst, Src: src})
			}
			return
		}
	}

	// Stores.
	if val, ok := func() (int, bool) {
		return regIndexParam(asg.RHS, t.RF, op.Params)
	}(); ok {
		if ix, isIx := asg.LHS.(*isdl.Index); isIx {
			if a, off, okA := t.regOffsetAddr(ix.Idx, op.Params); okA {
				t.Stores[ix.Name] = append(t.Stores[ix.Name], &MachStore{
					Op: op, Val: val, Mem: ix.Name, RegAddrParam: a, OffParam: off, MemParam: -1,
				})
				return
			}
		}
		if ref, isRef := asg.LHS.(*isdl.Ref); isRef && ref.Param != nil && ref.Param.NT != nil {
			if opt, arSub, mem, ar, ok := memNTOption(ref.Param.NT); ok {
				t.Stores[mem] = append(t.Stores[mem], &MachStore{
					Op: op, Val: val, Mem: mem, RegAddrParam: -1,
					MemParam: paramIndex(op.Params, ref.Param), AROption: opt, ARSub: arSub, ARStorage: ar,
				})
				return
			}
		}
	}

	// SetAR: AR[a] <- f(RF[s]).
	if ix, ok := asg.LHS.(*isdl.Index); ok && ix.Storage != t.RF && ix.Storage.Kind == isdl.StRegFile {
		arRef, okA := ix.Idx.(*isdl.Ref)
		if !okA || arRef.Param == nil || arRef.Param.Token == nil {
			return
		}
		var src = -1
		isdl.WalkExpr(asg.RHS, func(e isdl.Expr) {
			if pi, ok := regIndexParam(e, t.RF, op.Params); ok {
				src = pi
			}
		})
		if src >= 0 {
			t.SetARs[ix.Storage.Name] = append(t.SetARs[ix.Storage.Name], &MachSetAR{
				Op: op, ARStorage: ix.Storage.Name,
				ARParam: paramIndex(op.Params, arRef.Param), SrcParam: src,
			})
		}
	}
}

func (t *Target) classifyBranch(op *isdl.Operation, ifs *isdl.If) {
	asg, ok := ifs.Then[0].(*isdl.Assign)
	if !ok {
		return
	}
	lref, ok := asg.LHS.(*isdl.Ref)
	if !ok || lref.Storage == nil || lref.Storage.Kind != isdl.StProgramCounter {
		return
	}
	tref, ok := asg.RHS.(*isdl.Ref)
	if !ok || tref.Param == nil || tref.Param.Token == nil || tref.Param.Token.Kind != isdl.TokImm {
		return
	}
	target := paramIndex(op.Params, tref.Param)

	cond, ok := ifs.Cond.(*isdl.Binary)
	if !ok {
		return
	}
	a, okA := regIndexParam(cond.X, t.RF, op.Params)
	if !okA {
		return
	}
	if b, okB := regIndexParam(cond.Y, t.RF, op.Params); okB && cond.Op == "==" {
		t.Branches = append(t.Branches, &MachBranch{Op: op, Kind: BrEQPair, A: a, B: b, Target: target})
		return
	}
	if lit, okL := cond.Y.(*isdl.Lit); okL && lit.Val.IsZero() {
		switch cond.Op {
		case "==":
			t.Branches = append(t.Branches, &MachBranch{Op: op, Kind: BrZ, A: a, B: -1, Target: target})
		case "!=":
			t.Branches = append(t.Branches, &MachBranch{Op: op, Kind: BrNZ, A: a, B: -1, Target: target})
		}
	}
}

// benignSideEffects reports whether the operation's side effects touch only
// control registers (condition flags). Flag updates do not disturb compiled
// code, which never reads them.
func benignSideEffects(op *isdl.Operation) bool {
	for _, s := range op.SideEffect {
		asg, ok := s.(*isdl.Assign)
		if !ok {
			return false
		}
		if !writesControlReg(asg.LHS) {
			return false
		}
	}
	return true
}

func writesControlReg(e isdl.Expr) bool {
	switch e := e.(type) {
	case *isdl.Ref:
		if e.Storage != nil {
			return e.Storage.Kind == isdl.StControlRegister
		}
		if e.AliasTo != nil {
			return e.AliasTo.Storage.Kind == isdl.StControlRegister
		}
	case *isdl.SliceE:
		return writesControlReg(e.X)
	}
	return false
}

// branchOf returns the first branch of the wanted kind, or nil.
func (t *Target) branchOf(kind BranchKind) *MachBranch {
	for _, b := range t.Branches {
		if b.Kind == kind {
			return b
		}
	}
	return nil
}
