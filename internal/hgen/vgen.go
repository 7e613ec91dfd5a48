package hgen

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/verilog"
)

// This file generates the synthesizable Verilog model (§4.1): a
// single-clock implementation of the instruction set. Decode logic comes
// from the operation signatures (§4.2). The always block reproduces the
// cycle semantics of §3.3.3 exactly — as the paper notes, the Verilog model
// is itself a simulator — using blocking assignments with explicit
// temporaries:
//
//	s_PC = s_PC + 1;           // PC reads as the next address (§ xsim)
//	<action-phase reads into temporaries>
//	<action-phase guarded writes>
//	<side-effect-phase reads into temporaries>
//	<side-effect-phase guarded writes>
//
// so every statement of a phase reads pre-phase state, and side effects see
// action results, matching the generated ILS bit for bit (the co-simulation
// tests lock-step the two).
//
// Restriction (documented in DESIGN.md): MaxSize must be 1 (multi-word
// instructions remain ILS-only). Stack storage synthesizes to a memory plus
// a pointer register; push/pop mutate the pointer with the same phase
// ordering as the simulator. On overflow the hardware wraps where the
// simulator reports a fault — programs that respect the declared depth
// behave identically.

type vgen struct {
	d    *isdl.Description
	mod  *verilog.Module
	body []verilog.Stmt
	tmpN int
	// tempDecls accumulates the widths of allocated temporaries.
	tempDecls []verilog.Net
}

// generateVerilog builds and renders the hardware model.
func generateVerilog(d *isdl.Description) (string, error) {
	if d.MaxSize() != 1 {
		return "", fmt.Errorf("hgen: multi-word instructions (Size > 1) are not synthesizable")
	}

	g := &vgen{d: d, mod: &verilog.Module{Name: "proc_" + d.Name}}
	m := g.mod
	m.Ports = append(m.Ports,
		verilog.Port{Name: "clk", Dir: verilog.In, Width: 1},
		verilog.Port{Name: "halted", Dir: verilog.Out, Width: 1},
	)

	// Storage. Stacks additionally get a pointer register (the number of
	// live entries, matching the state package).
	for _, st := range d.Storage {
		n := verilog.Net{Name: "s_" + st.Name, Width: st.Width, Reg: true}
		if st.Kind.Addressed() {
			n.Depth = st.Depth
		}
		m.Nets = append(m.Nets, n)
		if st.Kind == isdl.StStack {
			m.Nets = append(m.Nets, verilog.Net{Name: "s_" + st.Name + "_sp", Width: addrBitsFor(st.Depth) + 1, Reg: true})
		}
	}

	// Fetch: the instruction register wire.
	im := d.InstructionMemory()
	pc := d.PC()
	m.Nets = append(m.Nets, verilog.Net{Name: "ir", Width: d.WordWidth})
	m.Assigns = append(m.Assigns, verilog.Assign{
		LHS: &verilog.NetL{Name: "ir"},
		RHS: &verilog.Index{Name: "s_" + im.Name, Idx: &verilog.Ref{Name: "s_" + pc.Name}},
	})

	// Decode lines and parameter extraction (§4.2).
	for _, f := range d.Fields {
		for _, op := range f.Ops {
			g.emitDecode(decName(op), &op.Sig, &verilog.Ref{Name: "ir"}, d.WordWidth)
			for pi, prm := range op.Params {
				g.emitParamExtract(paramWire(op, prm), &op.Sig, pi, prm, &verilog.Ref{Name: "ir"})
			}
		}
	}

	// Halt output.
	if _, ok := d.StorageByName["HLT"]; ok {
		m.Assigns = append(m.Assigns, verilog.Assign{
			LHS: &verilog.NetL{Name: "halted"},
			RHS: &verilog.Binary{Op: "!=", X: &verilog.Ref{Name: "s_HLT"}, Y: &verilog.Const{Val: bitvec.New(d.StorageByName["HLT"].Width)}, W: 1},
		})
	} else {
		m.Assigns = append(m.Assigns, verilog.Assign{
			LHS: &verilog.NetL{Name: "halted"},
			RHS: &verilog.Const{Val: bitvec.New(1)},
		})
	}

	// The execute block.
	g.stmt(&verilog.BAssign{
		LHS: &verilog.NetL{Name: "s_" + pc.Name},
		RHS: &verilog.Binary{Op: "+", X: &verilog.Ref{Name: "s_" + pc.Name, W: pc.Width}, Y: &verilog.Const{Val: bitvec.FromUint64(pc.Width, 1)}, W: pc.Width},
	})
	if err := g.emitPhase(false); err != nil {
		return "", err
	}
	if err := g.emitPhase(true); err != nil {
		return "", err
	}
	m.Nets = append(m.Nets, g.tempDecls...)
	m.Always = append(m.Always, verilog.Always{Clock: "clk", Stmts: g.body})

	return verilog.Emit(m), nil
}

func decName(op *isdl.Operation) string {
	return fmt.Sprintf("dec_%s_%s", op.Field.Name, op.Name)
}

func paramWire(op *isdl.Operation, prm *isdl.Param) string {
	return fmt.Sprintf("p_%s_%s_%s", op.Field.Name, op.Name, prm.Name)
}

// emitDecode declares "wire name = ((src & mask) == val);" from a
// signature's constant bits.
func (g *vgen) emitDecode(name string, sig *isdl.Signature, src verilog.Expr, width int) {
	mask, val := sig.ConstMask()
	g.mod.Nets = append(g.mod.Nets, verilog.Net{Name: name, Width: 1})
	g.mod.Assigns = append(g.mod.Assigns, verilog.Assign{
		LHS: &verilog.NetL{Name: name},
		RHS: &verilog.Binary{
			Op: "==",
			X:  &verilog.Binary{Op: "&", X: src, Y: constE(mask.Trunc(width)), W: width},
			Y:  constE(val.Trunc(width)),
			W:  1,
		},
	})
}

// emitParamExtract declares the wire carrying parameter pi's return value,
// rebuilt from the signature's parameter bits, and recursively the decode
// and extraction wires of non-terminal options.
func (g *vgen) emitParamExtract(name string, sig *isdl.Signature, pi int, prm *isdl.Param, src verilog.Expr) {
	rw := prm.RetWidth()
	// instruction-bit position of each parameter bit.
	pos := make([]int, rw)
	for i := range pos {
		pos[i] = -1
	}
	for b, sb := range sig.Bits {
		if sb.Kind == isdl.SigParam && sb.Param == pi && sb.PBit < rw {
			pos[sb.PBit] = b
		}
	}
	// Build a concat of contiguous source slices, MSB first.
	var parts []verilog.Expr
	i := rw - 1
	for i >= 0 {
		if pos[i] < 0 {
			parts = append(parts, &verilog.Const{Val: bitvec.New(1)})
			i--
			continue
		}
		hi := pos[i]
		lo := hi
		j := i - 1
		for j >= 0 && pos[j] == lo-1 {
			lo--
			j--
		}
		parts = append(parts, &verilog.Slice{X: src, Hi: hi, Lo: lo})
		i = j
	}
	var rhs verilog.Expr
	if len(parts) == 1 {
		rhs = parts[0]
	} else {
		rhs = &verilog.ConcatE{Parts: parts, W: rw}
	}
	g.mod.Nets = append(g.mod.Nets, verilog.Net{Name: name, Width: rw})
	g.mod.Assigns = append(g.mod.Assigns, verilog.Assign{LHS: &verilog.NetL{Name: name}, RHS: rhs})

	if prm.NT != nil {
		for _, opt := range prm.NT.Options {
			base := fmt.Sprintf("%s_o%d", name, opt.Index)
			g.emitDecode(base+"_sel", &opt.Sig, &verilog.Ref{Name: name, W: rw}, rw)
			for spi, sp := range opt.Params {
				g.emitParamExtract(fmt.Sprintf("%s_%s", base, sp.Name), &opt.Sig, spi, sp, &verilog.Ref{Name: name, W: rw})
			}
		}
	}
}

func (g *vgen) stmt(s verilog.Stmt) { g.body = append(g.body, s) }

func (g *vgen) temp(width int) string {
	g.tmpN++
	name := fmt.Sprintf("t%d", g.tmpN)
	g.tempDecls = append(g.tempDecls, verilog.Net{Name: name, Width: width, Reg: true})
	return name
}

// store computes an expression into a fresh temporary and returns its
// reference; used where the subset needs a simple net (slices, reuse).
func (g *vgen) store(e verilog.Expr, width int) *verilog.Ref {
	t := g.temp(width)
	g.stmt(&verilog.BAssign{LHS: &verilog.NetL{Name: t}, RHS: e})
	return &verilog.Ref{Name: t, W: width}
}

func (g *vgen) ensureRef(e verilog.Expr) verilog.Expr {
	switch e.(type) {
	case *verilog.Ref, *verilog.Index, *verilog.Const:
		return e
	}
	return g.store(e, verilog.Width(e))
}

// binding maps one ISDL parameter to its hardware wires.
type binding struct {
	prm *isdl.Param
	// wire carries the parameter's return value.
	wire string
}

type venv struct {
	g     *vgen
	binds map[string]binding
	// guard is the condition under which the enclosing statements execute;
	// stateful reads (pop) guard their pointer updates with it.
	guard verilog.Expr
}

func (g *vgen) opEnv(op *isdl.Operation) *venv {
	e := &venv{g: g, binds: map[string]binding{}}
	for _, prm := range op.Params {
		e.binds[prm.Name] = binding{prm: prm, wire: paramWire(op, prm)}
	}
	return e
}

func (e *venv) sub(b binding, opt *isdl.Option) *venv {
	s := &venv{g: e.g, binds: map[string]binding{}, guard: e.guard}
	base := fmt.Sprintf("%s_o%d", b.wire, opt.Index)
	for _, sp := range opt.Params {
		s.binds[sp.Name] = binding{prm: sp, wire: fmt.Sprintf("%s_%s", base, sp.Name)}
	}
	return s
}

// withGuard returns a copy of the environment carrying the given guard.
func (e *venv) withGuard(guard verilog.Expr) *venv {
	c := *e
	c.guard = guard
	return &c
}

// guardedWrite is one flattened, guarded state update collected during the
// read pass of a phase.
type guardedWrite struct {
	guard verilog.Expr // nil = unconditional
	apply []verilog.Stmt
}

// emitPhase flattens one phase (actions or side effects) of every
// operation: first all reads into temporaries, then all guarded writes.
func (g *vgen) emitPhase(sideEffects bool) error {
	var writes []guardedWrite
	for _, f := range g.d.Fields {
		for _, op := range f.Ops {
			env := g.opEnv(op)
			guard := verilog.Expr(&verilog.Ref{Name: decName(op), W: 1})
			stmts := op.Action
			if sideEffects {
				stmts = op.SideEffect
			}
			ws, err := g.flatten(stmts, guard, env)
			if err != nil {
				return fmt.Errorf("%s: %v", op.QualName(), err)
			}
			writes = append(writes, ws...)
			if sideEffects {
				// Non-terminal option side effects, guarded by the option
				// selects.
				for _, prm := range op.Params {
					if prm.NT == nil {
						continue
					}
					b := env.binds[prm.Name]
					for _, opt := range prm.NT.Options {
						og := &verilog.Binary{Op: "&&", X: guard, Y: &verilog.Ref{Name: fmt.Sprintf("%s_o%d_sel", b.wire, opt.Index), W: 1}, W: 1}
						ws, err := g.flatten(opt.SideEffect, og, env.sub(b, opt))
						if err != nil {
							return fmt.Errorf("%s %s: %v", op.QualName(), prm.Name, err)
						}
						writes = append(writes, ws...)
					}
				}
			}
		}
	}
	for _, w := range writes {
		if w.guard == nil {
			g.body = append(g.body, w.apply...)
		} else {
			g.stmt(&verilog.If{Cond: w.guard, Then: w.apply})
		}
	}
	return nil
}

// flatten evaluates the reads of a statement list (emitting temporaries)
// and returns the guarded writes to apply afterwards.
func (g *vgen) flatten(stmts []isdl.Stmt, guard verilog.Expr, env *venv) ([]guardedWrite, error) {
	env = env.withGuard(guard)
	var out []guardedWrite
	for _, s := range stmts {
		switch s := s.(type) {
		case *isdl.Assign:
			rhs, err := env.expr(s.RHS)
			if err != nil {
				return nil, err
			}
			rhsRef := g.ensureRef(rhs)
			cases, err := env.lvalues(s.LHS, guard)
			if err != nil {
				return nil, err
			}
			for _, c := range cases {
				out = append(out, guardedWrite{guard: c.guard, apply: c.apply(g, rhsRef)})
			}
		case *isdl.If:
			cond, err := env.expr(s.Cond)
			if err != nil {
				return nil, err
			}
			condRef := g.ensureRef(boolify(cond))
			thenG := andE(guard, condRef)
			ws, err := g.flatten(s.Then, thenG, env)
			if err != nil {
				return nil, err
			}
			out = append(out, ws...)
			if len(s.Else) > 0 {
				elseG := andE(guard, &verilog.Unary{Op: "!", X: condRef, W: 1})
				ws, err := g.flatten(s.Else, elseG, env)
				if err != nil {
					return nil, err
				}
				out = append(out, ws...)
			}
		case *isdl.ExprStmt:
			call := s.X.(*isdl.Call)
			switch call.Fn {
			case "push":
				name := "s_" + call.Args[0].(*isdl.Ref).Name
				v, err := env.expr(call.Args[1])
				if err != nil {
					return nil, err
				}
				vRef := g.ensureRef(v)
				out = append(out, guardedWrite{guard: guard, apply: g.pushStmts(name, vRef)})
			case "pop":
				if _, err := env.expr(call); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// pushStmts writes v at the stack pointer and bumps it (write phase).
func (g *vgen) pushStmts(name string, v verilog.Expr) []verilog.Stmt {
	spW, _, _ := g.mod.NetByName(name + "_sp")
	sp := &verilog.Ref{Name: name + "_sp", W: spW}
	one := constE(bitvec.FromUint64(spW, 1))
	return []verilog.Stmt{
		&verilog.BAssign{LHS: &verilog.IndexL{Name: name, Idx: sp}, RHS: v},
		&verilog.BAssign{LHS: &verilog.NetL{Name: name + "_sp"}, RHS: &verilog.Binary{Op: "+", X: sp, Y: one, W: spW}},
	}
}

func boolify(e verilog.Expr) verilog.Expr {
	if verilog.Width(e) == 1 {
		return e
	}
	return &verilog.Unary{Op: "|", X: e, W: 1}
}

func andE(a, b verilog.Expr) verilog.Expr {
	if a == nil {
		return b
	}
	return &verilog.Binary{Op: "&&", X: a, Y: b, W: 1}
}

// target is one resolved write destination with its (possibly
// option-refined) guard.
type target struct {
	guard verilog.Expr
	apply func(g *vgen, val verilog.Expr) []verilog.Stmt
}

// lvalues resolves an ISDL lvalue into hardware write targets. A
// non-terminal parameter fans out into one guarded target per option.
func (e *venv) lvalues(x isdl.Expr, guard verilog.Expr) ([]target, error) {
	switch x := x.(type) {
	case *isdl.Ref:
		switch {
		case x.Storage != nil:
			name := "s_" + x.Storage.Name
			return []target{{guard: guard, apply: func(g *vgen, v verilog.Expr) []verilog.Stmt {
				return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.NetL{Name: name}, RHS: v}}
			}}}, nil
		case x.AliasTo != nil:
			return e.aliasTargets(x.AliasTo, guard)
		case x.Param != nil && x.Param.NT != nil:
			b := e.binds[x.Param.Name]
			var out []target
			for _, opt := range x.Param.NT.Options {
				sel := &verilog.Ref{Name: fmt.Sprintf("%s_o%d_sel", b.wire, opt.Index), W: 1}
				sub := e.sub(b, opt)
				ts, err := sub.lvalues(opt.Value, andE(guard, sel))
				if err != nil {
					return nil, err
				}
				out = append(out, ts...)
			}
			return out, nil
		}
	case *isdl.Index:
		idx, err := e.expr(x.Idx)
		if err != nil {
			return nil, err
		}
		idxRef := e.g.ensureRef(idx)
		name := "s_" + x.Storage.Name
		return []target{{guard: guard, apply: func(g *vgen, v verilog.Expr) []verilog.Stmt {
			return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.IndexL{Name: name, Idx: idxRef}, RHS: v}}
		}}}, nil
	case *isdl.SliceE:
		inner, err := e.lvalues(x.X, guard)
		if err != nil {
			return nil, err
		}
		var out []target
		for _, t := range inner {
			out = append(out, sliceTarget(t, x.Hi, x.Lo))
		}
		return out, nil
	}
	return nil, fmt.Errorf("%s is not a synthesizable lvalue", x)
}

func (e *venv) aliasTargets(a *isdl.Alias, guard verilog.Expr) ([]target, error) {
	name := "s_" + a.Target
	base := target{guard: guard}
	if a.Indexed {
		idx := &verilog.Const{Val: bitvec.FromUint64(max(1, addrBitsFor(a.Storage.Depth)), a.Index)}
		base.apply = func(g *vgen, v verilog.Expr) []verilog.Stmt {
			return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.IndexL{Name: name, Idx: idx}, RHS: v}}
		}
	} else {
		base.apply = func(g *vgen, v verilog.Expr) []verilog.Stmt {
			return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.NetL{Name: name}, RHS: v}}
		}
	}
	if a.Sliced {
		base = sliceTarget(base, a.Hi, a.Lo)
	}
	return []target{base}, nil
}

func addrBitsFor(depth int) int {
	n := 1
	for 1<<n < depth {
		n++
	}
	return n
}

// sliceTarget narrows a target to bits [hi:lo]. Whole-net targets become
// part-select assignments; memory-word targets become read-modify-write.
func sliceTarget(t target, hi, lo int) target {
	inner := t.apply
	t.apply = func(g *vgen, v verilog.Expr) []verilog.Stmt {
		// Probe the inner target with a marker to discover its shape.
		probe := inner(g, v)
		ba := probe[0].(*verilog.BAssign)
		switch l := ba.LHS.(type) {
		case *verilog.NetL:
			w, _, _ := g.mod.NetByName(l.Name)
			_ = w
			return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.SliceL{Name: l.Name, Hi: hi, Lo: lo}, RHS: v}}
		case *verilog.IndexL:
			// Read-modify-write on the memory word.
			w, _, _ := g.mod.NetByName(l.Name)
			old := g.store(&verilog.Index{Name: l.Name, Idx: l.Idx, W: w}, w)
			var parts []verilog.Expr
			if hi < w-1 {
				parts = append(parts, &verilog.Slice{X: old, Hi: w - 1, Lo: hi + 1})
			}
			parts = append(parts, v)
			if lo > 0 {
				parts = append(parts, &verilog.Slice{X: old, Hi: lo - 1, Lo: 0})
			}
			var nv verilog.Expr
			if len(parts) == 1 {
				nv = parts[0]
			} else {
				nv = &verilog.ConcatE{Parts: parts, W: w}
			}
			return []verilog.Stmt{&verilog.BAssign{LHS: l, RHS: nv}}
		case *verilog.SliceL:
			return []verilog.Stmt{&verilog.BAssign{LHS: &verilog.SliceL{Name: l.Name, Hi: l.Lo + hi, Lo: l.Lo + lo}, RHS: v}}
		}
		return probe
	}
	return t
}
