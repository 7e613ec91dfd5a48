package isdl

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
)

// analyze resolves names, checks widths and encodings, builds signatures and
// verifies decodability. It mutates the description in place (resolving
// references and materializing literal widths).
func analyze(d *Description) error {
	if err := checkStorage(d); err != nil {
		return err
	}
	if err := resolveNonTerminals(d); err != nil {
		return err
	}
	if err := resolveOperations(d); err != nil {
		return err
	}
	if err := resolveConstraints(d); err != nil {
		return err
	}
	return nil
}

func semErr(p Pos, format string, args ...interface{}) error {
	return &lexError{p, fmt.Sprintf(format, args...)}
}

// ---------------------------------------------------------------- storage --

func checkStorage(d *Description) error {
	var pcCount, imCount int
	for _, st := range d.Storage {
		if st.Width <= 0 || st.Width > bitvec.MaxWidth {
			return semErr(st.Pos, "storage %s: width %d out of range", st.Name, st.Width)
		}
		if st.Kind.Addressed() {
			if st.Depth <= 0 {
				return semErr(st.Pos, "storage %s: %s requires a positive depth", st.Name, st.Kind)
			}
		} else if st.Depth != 1 {
			return semErr(st.Pos, "storage %s: %s cannot have a depth", st.Name, st.Kind)
		}
		switch st.Kind {
		case StProgramCounter:
			pcCount++
		case StInstructionMemory:
			imCount++
		}
	}
	if pcCount != 1 {
		return semErr(Pos{}, "description must declare exactly one ProgramCounter (found %d)", pcCount)
	}
	if imCount != 1 {
		return semErr(Pos{}, "description must declare exactly one InstructionMemory (found %d)", imCount)
	}

	names := map[string]bool{}
	for n := range d.StorageByName {
		names[n] = true
	}
	for _, a := range d.Aliases {
		if names[a.Name] {
			return semErr(a.Pos, "alias %s collides with another name", a.Name)
		}
		names[a.Name] = true
		st, ok := d.StorageByName[a.Target]
		if !ok {
			return semErr(a.Pos, "alias %s: unknown storage %s", a.Name, a.Target)
		}
		if st.Kind.Addressed() != a.Indexed {
			if a.Indexed {
				return semErr(a.Pos, "alias %s: %s is not addressed", a.Name, a.Target)
			}
			return semErr(a.Pos, "alias %s: %s requires an element index", a.Name, a.Target)
		}
		if a.Indexed && a.Index >= uint64(st.Depth) {
			return semErr(a.Pos, "alias %s: index %d exceeds depth %d", a.Name, a.Index, st.Depth)
		}
		if a.Sliced && (a.Lo < 0 || a.Hi >= st.Width) {
			return semErr(a.Pos, "alias %s: bit range [%d:%d] exceeds width %d", a.Name, a.Hi, a.Lo, st.Width)
		}
		a.Storage = st
	}
	return nil
}

// PC returns the program-counter storage.
func (d *Description) PC() *Storage {
	for _, st := range d.Storage {
		if st.Kind == StProgramCounter {
			return st
		}
	}
	return nil
}

// InstructionMemory returns the instruction memory storage.
func (d *Description) InstructionMemory() *Storage {
	for _, st := range d.Storage {
		if st.Kind == StInstructionMemory {
			return st
		}
	}
	return nil
}

// AliasByName returns the named alias, or nil.
func (d *Description) AliasByName(name string) *Alias {
	for _, a := range d.Aliases {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// AliasWidth returns the width in bits of an alias target.
func (d *Description) AliasWidth(a *Alias) int {
	if a.Sliced {
		return a.Hi - a.Lo + 1
	}
	return a.Storage.Width
}

// ---------------------------------------------------- non-terminal résolution --

// resolveNonTerminals processes non-terminals in dependency order so that a
// non-terminal's value width is known before any user of it is checked.
func resolveNonTerminals(d *Description) error {
	// Topological order over NT → NT references, detecting cycles.
	const (
		white = iota
		gray
		black
	)
	color := map[string]int{}
	var order []string
	var visit func(name string, at Pos) error
	visit = func(name string, at Pos) error {
		nt, ok := d.NonTerminals[name]
		if !ok {
			return semErr(at, "unknown non-terminal %s", name)
		}
		switch color[name] {
		case gray:
			return semErr(nt.Pos, "non-terminal %s is recursively defined", name)
		case black:
			return nil
		}
		color[name] = gray
		for _, opt := range nt.Options {
			for _, prm := range opt.Params {
				if _, isTok := d.Tokens[prm.TypeName]; isTok {
					continue
				}
				if err := visit(prm.TypeName, prm.Pos); err != nil {
					return err
				}
			}
		}
		color[name] = black
		order = append(order, name)
		return nil
	}
	// Deterministic iteration order for reproducible diagnostics.
	names := make([]string, 0, len(d.NonTerminals))
	for n := range d.NonTerminals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := visit(n, d.NonTerminals[n].Pos); err != nil {
			return err
		}
	}

	for _, name := range order {
		nt := d.NonTerminals[name]
		if err := resolveNT(d, nt); err != nil {
			return err
		}
	}
	return nil
}

func resolveNT(d *Description, nt *NonTerminal) error {
	if nt.RetWidth <= 0 || nt.RetWidth > d.WordWidth*8 {
		return semErr(nt.Pos, "non-terminal %s: return width %d out of range", nt.Name, nt.RetWidth)
	}
	nt.Lvalue = true
	for _, opt := range nt.Options {
		if err := resolveParams(d, opt.Params); err != nil {
			return err
		}
		if err := checkEncode(nt.RetWidth, opt.Encode, opt.Params, fmt.Sprintf("non-terminal %s option %d", nt.Name, opt.Index)); err != nil {
			return err
		}
		opt.Sig = buildSignature(nt.RetWidth, opt.Encode)

		if opt.Value == nil {
			return semErr(opt.Pos, "non-terminal %s option %d: missing Value", nt.Name, opt.Index)
		}
		sc := &scope{d: d, params: opt.Params}
		w, err := sc.checkExpr(opt.Value)
		if err != nil {
			return err
		}
		if w == 0 {
			return semErr(opt.Value.Pos(), "non-terminal %s option %d: Value width cannot be inferred; use a sized literal or sext/zext", nt.Name, opt.Index)
		}
		if nt.ValueWidth == 0 {
			nt.ValueWidth = w
		} else if nt.ValueWidth != w {
			return semErr(opt.Value.Pos(), "non-terminal %s: option %d Value width %d differs from %d", nt.Name, opt.Index, w, nt.ValueWidth)
		}
		if !sc.isLvalue(opt.Value) {
			nt.Lvalue = false
		}
		if err := sc.checkStmts(opt.SideEffect); err != nil {
			return err
		}
		if err := checkCostRanges(opt.Costs, opt.Timing, true, opt.Pos); err != nil {
			return err
		}
	}
	// Options must be mutually distinguishable for the recursive
	// disassembler (Figure 4).
	for i, a := range nt.Options {
		for _, b := range nt.Options[i+1:] {
			if !a.Sig.ConflictsWith(&b.Sig) {
				return semErr(b.Pos, "non-terminal %s: options %d and %d are not distinguishable by constant bits", nt.Name, a.Index, b.Index)
			}
		}
	}
	return nil
}

func resolveParams(d *Description, params []*Param) error {
	seen := map[string]bool{}
	for _, prm := range params {
		if seen[prm.Name] {
			return semErr(prm.Pos, "duplicate parameter %s", prm.Name)
		}
		seen[prm.Name] = true
		if tok, ok := d.Tokens[prm.TypeName]; ok {
			prm.Token = tok
			continue
		}
		if nt, ok := d.NonTerminals[prm.TypeName]; ok {
			prm.NT = nt
			continue
		}
		return semErr(prm.Pos, "parameter %s: unknown type %s", prm.Name, prm.TypeName)
	}
	return nil
}

// checkEncode validates bitfield assignments against the destination width
// and verifies every parameter is fully and uniquely encoded — the
// reversibility obligation behind Axiom 1.
func checkEncode(width int, encode []*BitAssign, params []*Param, what string) error {
	dstUsed := make([]bool, width)
	covered := make([][]bool, len(params))
	for i, prm := range params {
		covered[i] = make([]bool, prm.RetWidth())
	}
	for _, ba := range encode {
		if ba.Hi >= width {
			return semErr(ba.Pos, "%s: bitfield [%d:%d] exceeds destination width %d", what, ba.Hi, ba.Lo, width)
		}
		for b := ba.Lo; b <= ba.Hi; b++ {
			if dstUsed[b] {
				return semErr(ba.Pos, "%s: destination bit %d assigned more than once", what, b)
			}
			dstUsed[b] = true
		}
		if ba.ConstSet {
			continue
		}
		prm := params[ba.Param]
		phi, plo := ba.PHi, ba.PLo
		if phi < 0 {
			phi, plo = prm.RetWidth()-1, 0
		}
		if phi >= prm.RetWidth() {
			return semErr(ba.Pos, "%s: slice [%d:%d] exceeds parameter %s width %d", what, phi, plo, prm.Name, prm.RetWidth())
		}
		if phi-plo != ba.Hi-ba.Lo {
			return semErr(ba.Pos, "%s: destination width %d does not match parameter slice width %d", what, ba.Width(), phi-plo+1)
		}
		for b := plo; b <= phi; b++ {
			if covered[ba.Param][b] {
				return semErr(ba.Pos, "%s: parameter %s bit %d encoded more than once", what, prm.Name, b)
			}
			covered[ba.Param][b] = true
		}
	}
	for i, prm := range params {
		for b, ok := range covered[i] {
			if !ok {
				return semErr(prm.Pos, "%s: parameter %s bit %d is never encoded; the encoding is not reversible", what, prm.Name, b)
			}
		}
	}
	return nil
}

func checkCostRanges(c Costs, t Timing, isOption bool, p Pos) error {
	if c.Cycle < 0 || c.Stall < 0 || c.Size < 0 {
		return semErr(p, "costs must be non-negative")
	}
	if t.Latency < 0 || t.Usage < 0 {
		return semErr(p, "timing parameters must be non-negative")
	}
	if !isOption {
		if c.Cycle < 1 {
			return semErr(p, "operation Cycle cost must be at least 1")
		}
		if c.Size < 1 {
			return semErr(p, "operation Size cost must be at least 1")
		}
		if t.Latency < 1 {
			return semErr(p, "operation Latency must be at least 1")
		}
		if t.Usage < 1 {
			return semErr(p, "operation Usage must be at least 1")
		}
	}
	return nil
}

// ---------------------------------------------------------- operations --

func resolveOperations(d *Description) error {
	if len(d.Fields) == 0 {
		return semErr(Pos{}, "description has no instruction-set fields")
	}
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			if err := resolveParams(d, op.Params); err != nil {
				return err
			}
			width := d.WordWidth * op.Costs.Size
			if err := checkEncode(width, op.Encode, op.Params, op.QualName()); err != nil {
				return err
			}
			// Signatures span the widest instruction so every field can
			// match against the same fetched words.
			op.Sig = buildSignature(d.WordWidth*d.MaxSize(), op.Encode)
			sc := &scope{d: d, params: op.Params}
			if err := sc.checkStmts(op.Action); err != nil {
				return err
			}
			if err := sc.checkStmts(op.SideEffect); err != nil {
				return err
			}
			if err := checkCostRanges(op.Costs, op.Timing, false, op.Pos); err != nil {
				return err
			}
		}
		for i, a := range f.Ops {
			for _, b := range f.Ops[i+1:] {
				if !a.Sig.ConflictsWith(&b.Sig) {
					return semErr(b.Pos, "field %s: operations %s and %s are not distinguishable by constant bits", f.Name, a.Name, b.Name)
				}
			}
		}
	}
	return nil
}

func resolveConstraints(d *Description) error {
	for _, c := range d.Constraints {
		if err := resolveCExpr(d, c.Expr, c.Pos); err != nil {
			return err
		}
	}
	return nil
}

func resolveCExpr(d *Description, e CExpr, p Pos) error {
	switch e := e.(type) {
	case *CAtom:
		f := d.FieldByName(e.Field)
		if f == nil {
			return semErr(p, "constraint references unknown field %s", e.Field)
		}
		op, ok := f.ByName[e.Op]
		if !ok {
			return semErr(p, "constraint references unknown operation %s.%s", e.Field, e.Op)
		}
		e.ResolvedField, e.ResolvedOp = f, op
		return nil
	case *CNot:
		return resolveCExpr(d, e.X, p)
	case *CBin:
		if err := resolveCExpr(d, e.X, p); err != nil {
			return err
		}
		return resolveCExpr(d, e.Y, p)
	}
	return semErr(p, "malformed constraint")
}

// -------------------------------------------------------- RTL checking --

// scope is the name-resolution context for RTL expressions: the description
// plus the parameters of the enclosing operation or option.
type scope struct {
	d      *Description
	params []*Param
}

func (sc *scope) param(name string) *Param {
	for _, p := range sc.params {
		if p.Name == name {
			return p
		}
	}
	return nil
}

func (sc *scope) checkStmts(stmts []Stmt) error {
	for _, s := range stmts {
		if err := sc.checkStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (sc *scope) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *Assign:
		lw, err := sc.checkExpr(s.LHS)
		if err != nil {
			return err
		}
		if !sc.isLvalue(s.LHS) {
			return semErr(s.LHS.Pos(), "%s is not assignable", s.LHS)
		}
		rw, err := sc.checkExpr(s.RHS)
		if err != nil {
			return err
		}
		if rw == 0 {
			if err := sc.materialize(s.RHS, lw); err != nil {
				return err
			}
			rw = lw
		}
		if rw != lw {
			return semErr(s.At, "assignment width mismatch: %s is %d bits, %s is %d bits (use sext/zext/trunc)", s.LHS, lw, s.RHS, rw)
		}
		return nil
	case *If:
		cw, err := sc.checkExpr(s.Cond)
		if err != nil {
			return err
		}
		if cw == 0 {
			if err := sc.materialize(s.Cond, 1); err != nil {
				return err
			}
		}
		if err := sc.checkStmts(s.Then); err != nil {
			return err
		}
		return sc.checkStmts(s.Else)
	case *ExprStmt:
		call, ok := s.X.(*Call)
		if !ok || (call.Fn != "push" && call.Fn != "pop") {
			return semErr(s.At, "only push/pop may be used as statements")
		}
		_, err := sc.checkExpr(s.X)
		return err
	}
	return semErr(s.Pos(), "unknown statement")
}

// isLvalue reports whether e denotes a storage location.
func (sc *scope) isLvalue(e Expr) bool {
	switch e := e.(type) {
	case *Ref:
		switch {
		case e.Storage != nil:
			return !e.Storage.Kind.Addressed()
		case e.AliasTo != nil:
			return true
		case e.Param != nil:
			return e.Param.NT != nil && e.Param.NT.Lvalue
		}
	case *Index:
		return true
	case *SliceE:
		return sc.isLvalue(e.X)
	}
	return false
}

// checkExpr resolves names and computes widths. Width 0 means "untyped
// numeric literal"; callers must materialize it from context.
func (sc *scope) checkExpr(e Expr) (int, error) {
	switch e := e.(type) {
	case *Lit:
		if e.Sized {
			return e.Val.Width(), nil
		}
		return 0, nil

	case *Ref:
		if p := sc.param(e.Name); p != nil {
			e.Param = p
			e.W = p.ValueWidth()
			return e.W, nil
		}
		if st, ok := sc.d.StorageByName[e.Name]; ok {
			if st.Kind.Addressed() {
				return 0, semErr(e.At, "%s is addressed storage; index it", e.Name)
			}
			e.Storage = st
			e.W = st.Width
			return e.W, nil
		}
		if a := sc.d.AliasByName(e.Name); a != nil {
			e.AliasTo = a
			e.W = sc.d.AliasWidth(a)
			return e.W, nil
		}
		return 0, semErr(e.At, "unknown name %s", e.Name)

	case *Index:
		st, ok := sc.d.StorageByName[e.Name]
		if !ok {
			return 0, semErr(e.At, "unknown storage %s", e.Name)
		}
		if !st.Kind.Addressed() {
			return 0, semErr(e.At, "%s is not addressed storage", e.Name)
		}
		e.Storage = st
		iw, err := sc.checkExpr(e.Idx)
		if err != nil {
			return 0, err
		}
		if iw == 0 {
			if err := sc.materialize(e.Idx, addrBits(st.Depth)); err != nil {
				return 0, err
			}
		}
		e.W = st.Width
		return e.W, nil

	case *SliceE:
		xw, err := sc.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		if xw == 0 {
			return 0, semErr(e.At, "cannot slice an unsized literal")
		}
		if e.Hi >= xw {
			return 0, semErr(e.At, "slice [%d:%d] exceeds %d-bit operand", e.Hi, e.Lo, xw)
		}
		return e.Width(), nil

	case *Unary:
		xw, err := sc.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		if e.Def.Width == Logical {
			if xw == 0 {
				if err := sc.materialize(e.X, 1); err != nil {
					return 0, err
				}
			}
			xw = 1
		}
		e.W = xw // 0 stays untyped; folded at materialization
		return e.W, nil

	case *Binary:
		xw, err := sc.checkExpr(e.X)
		if err != nil {
			return 0, err
		}
		yw, err := sc.checkExpr(e.Y)
		if err != nil {
			return 0, err
		}
		switch e.Def.Width {
		case Shift:
			if xw == 0 {
				return 0, semErr(e.At, "shift of an unsized literal; size it")
			}
			if yw == 0 {
				if err := sc.materialize(e.Y, shiftAmountWidth); err != nil {
					return 0, err
				}
			}
			e.W = xw
			return e.W, nil
		case Logical:
			if xw == 0 {
				if err := sc.materialize(e.X, 1); err != nil {
					return 0, err
				}
			}
			if yw == 0 {
				if err := sc.materialize(e.Y, 1); err != nil {
					return 0, err
				}
			}
			e.W = 1
			return 1, nil
		}
		// SameWidth and OneBit operands unify.
		switch {
		case xw == 0 && yw == 0:
			if e.Def.Width == OneBit {
				return 0, semErr(e.At, "comparison of two unsized literals")
			}
			return 0, nil
		case xw == 0:
			if err := sc.materialize(e.X, yw); err != nil {
				return 0, err
			}
			xw = yw
		case yw == 0:
			if err := sc.materialize(e.Y, xw); err != nil {
				return 0, err
			}
			yw = xw
		}
		if xw != yw {
			return 0, semErr(e.At, "operand width mismatch %d vs %d for %q", xw, yw, e.Op)
		}
		if e.Def.Width == OneBit {
			e.W = 1
		} else {
			e.W = xw
		}
		return e.W, nil

	case *Call:
		return sc.checkCall(e)
	}
	return 0, semErr(e.Pos(), "unknown expression")
}

// addrBits returns the index width for a storage of the given depth.
func addrBits(depth int) int {
	if depth <= 1 {
		return 1
	}
	return bitsFor(uint64(depth - 1))
}

func (sc *scope) checkCall(e *Call) (int, error) {
	argc := func(n int) error {
		if len(e.Args) != n {
			return semErr(e.At, "%s expects %d arguments, got %d", e.Fn, n, len(e.Args))
		}
		return nil
	}
	// widthArg extracts a static width from an unsized literal argument.
	widthArg := func(i int) (int, error) {
		lit, ok := e.Args[i].(*Lit)
		if !ok || lit.Sized || lit.Neg {
			return 0, semErr(e.Args[i].Pos(), "%s: width argument must be a plain decimal constant", e.Fn)
		}
		if lit.Dec == 0 || lit.Dec > bitvec.MaxWidth {
			return 0, semErr(e.Args[i].Pos(), "%s: width %d out of range", e.Fn, lit.Dec)
		}
		return int(lit.Dec), nil
	}
	// sized checks argument i and forbids untyped results.
	sized := func(i int) (int, error) {
		w, err := sc.checkExpr(e.Args[i])
		if err != nil {
			return 0, err
		}
		if w == 0 {
			return 0, semErr(e.Args[i].Pos(), "%s: argument %d must have a definite width", e.Fn, i+1)
		}
		return w, nil
	}
	// pairSameWidth checks two arguments and unifies untyped literals.
	pairSameWidth := func() (int, error) {
		xw, err := sc.checkExpr(e.Args[0])
		if err != nil {
			return 0, err
		}
		yw, err := sc.checkExpr(e.Args[1])
		if err != nil {
			return 0, err
		}
		switch {
		case xw == 0 && yw == 0:
			return 0, semErr(e.At, "%s: both arguments unsized", e.Fn)
		case xw == 0:
			if err := sc.materialize(e.Args[0], yw); err != nil {
				return 0, err
			}
			xw = yw
		case yw == 0:
			if err := sc.materialize(e.Args[1], xw); err != nil {
				return 0, err
			}
		}
		if yw != 0 && xw != yw {
			return 0, semErr(e.At, "%s: operand widths differ (%d vs %d)", e.Fn, xw, yw)
		}
		return xw, nil
	}

	switch e.Fn {
	case "push":
		if err := argc(2); err != nil {
			return 0, err
		}
		st, err := sc.stackArg(e.Args[0])
		if err != nil {
			return 0, err
		}
		vw, err := sc.checkExpr(e.Args[1])
		if err != nil {
			return 0, err
		}
		if vw == 0 {
			if err := sc.materialize(e.Args[1], st.Width); err != nil {
				return 0, err
			}
			vw = st.Width
		}
		if vw != st.Width {
			return 0, semErr(e.At, "push: value width %d does not match stack width %d", vw, st.Width)
		}
		e.W = 0
		return 0, nil

	case "pop":
		if err := argc(1); err != nil {
			return 0, err
		}
		st, err := sc.stackArg(e.Args[0])
		if err != nil {
			return 0, err
		}
		e.W = st.Width
		return e.W, nil
	}

	e.Def = lookupOp(FormCall, e.Fn)
	if e.Def == nil {
		return 0, semErr(e.At, "unknown builtin %s", e.Fn)
	}
	if e.Def.Width == SumOfWidths {
		if len(e.Args) < e.Def.Arity {
			return 0, semErr(e.At, "%s needs at least %d arguments", e.Fn, e.Def.Arity)
		}
	} else if err := argc(e.Def.Arity); err != nil {
		return 0, err
	}
	switch e.Def.Width {
	case WidthLiteral:
		if _, err := sized(0); err != nil {
			return 0, err
		}
		w, err := widthArg(1)
		if err != nil {
			return 0, err
		}
		e.W = w

	case OneBit:
		if _, err := pairSameWidth(); err != nil {
			return 0, err
		}
		e.W = 1

	case Shift:
		w, err := sized(0)
		if err != nil {
			return 0, err
		}
		sw, err := sc.checkExpr(e.Args[1])
		if err != nil {
			return 0, err
		}
		if sw == 0 {
			if err := sc.materialize(e.Args[1], shiftAmountWidth); err != nil {
				return 0, err
			}
		}
		e.W = w

	case SumOfWidths:
		e.W = 0
		for i := range e.Args {
			w, err := sized(i)
			if err != nil {
				return 0, err
			}
			e.W += w
		}
	}
	return e.W, nil
}

func (sc *scope) stackArg(e Expr) (*Storage, error) {
	ref, ok := e.(*Ref)
	if !ok {
		return nil, semErr(e.Pos(), "push/pop argument must name a Stack storage")
	}
	st, ok := sc.d.StorageByName[ref.Name]
	if !ok || st.Kind != StStack {
		return nil, semErr(e.Pos(), "%s is not a Stack storage", ref.Name)
	}
	ref.Storage = st
	ref.W = st.Width
	return st, nil
}

// materialize pushes a context width into an untyped expression tree,
// converting unsized literals into sized values (with range checking) and
// fixing the widths of untyped unary/binary nodes.
func (sc *scope) materialize(e Expr, w int) error {
	switch e := e.(type) {
	case *Lit:
		if e.Sized {
			if e.Val.Width() != w {
				return semErr(e.At, "literal width %d where %d expected", e.Val.Width(), w)
			}
			return nil
		}
		if e.Neg {
			v := int64(e.Dec)
			if e.Dec > 1<<62 {
				return semErr(e.At, "negative literal magnitude too large")
			}
			e.Val = bitvec.FromInt64(w, -v)
			// Range check: the value must round-trip.
			if w < 64 && e.Val.Int64() != -v {
				return semErr(e.At, "literal -%d does not fit in %d bits", e.Dec, w)
			}
		} else {
			e.Val = bitvec.FromUint64(w, e.Dec)
			if w < 64 && e.Val.Uint64() != e.Dec {
				return semErr(e.At, "literal %d does not fit in %d bits", e.Dec, w)
			}
		}
		e.Sized = true
		return nil
	case *Unary:
		if e.W != 0 {
			if e.W != w {
				return semErr(e.At, "width mismatch %d vs %d", e.W, w)
			}
			return nil
		}
		e.W = w
		return sc.materialize(e.X, w)
	case *Binary:
		if e.W != 0 {
			if e.W != w {
				return semErr(e.At, "width mismatch %d vs %d", e.W, w)
			}
			return nil
		}
		e.W = w
		if err := sc.materialize(e.X, w); err != nil {
			return err
		}
		return sc.materialize(e.Y, w)
	}
	if e.Width() != w {
		return semErr(e.Pos(), "width mismatch: %s is %d bits where %d expected", e, e.Width(), w)
	}
	return nil
}
