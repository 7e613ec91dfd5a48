package gensim

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/isdl"
)

// This file drives source generation: it lays out decoded-argument slots,
// emits the storage tables and the flat decode switch, and stitches the
// result onto the runtime template. The RTL compilers live in genrtl.go.

// paramLoc assigns one parameter a slot in the flat argument array of a
// decoded operation. Token parameters use one slot (the return value);
// non-terminal parameters use one slot for the decoded option index plus a
// union of their options' recursive layouts (options are mutually
// exclusive, so their sub-slots overlap).
type paramLoc struct {
	p    *isdl.Param
	slot int
	opts []*optScope // per option, when p.NT != nil
}

type optScope struct {
	opt    *isdl.Option
	params []paramLoc
}

func layoutParams(params []*isdl.Param, base int) ([]paramLoc, int) {
	locs := make([]paramLoc, len(params))
	for i, p := range params {
		pl := paramLoc{p: p, slot: base}
		base++
		if p.NT != nil {
			maxEnd := base
			for _, opt := range p.NT.Options {
				sub, end := layoutParams(opt.Params, base)
				pl.opts = append(pl.opts, &optScope{opt: opt, params: sub})
				if end > maxEnd {
					maxEnd = end
				}
			}
			base = maxEnd
		}
		locs[i] = pl
	}
	return locs, base
}

// opGen is the generation record for one operation; ids are global across
// fields (they index opNames/opCount in the generated machine).
type opGen struct {
	id, fi int
	op     *isdl.Operation
	params []paramLoc
	nslots int
}

type gen struct {
	d        *isdl.Description
	pcSid    int
	imSid    int
	haltSid  int // -1 when no halt storage
	imgW     int
	maxSize  int
	ops      []*opGen
	opOf     map[*isdl.Operation]*opGen
	aliasIdx map[*isdl.Alias]int

	// methods collects generated method bodies; emitted memoizes them and
	// tmp numbers statement temporaries.
	methods []string
	emitted map[string]bool
	tmp     int
}

func (g *gen) unsupported(format string, args ...any) error {
	return &UnsupportedError{Reason: fmt.Sprintf(format, args...)}
}

func maskU(w int) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(w) - 1
}

func hexU(v uint64) string { return fmt.Sprintf("%#x", v) }

// Generate emits the specialized simulator source for d, or an
// UnsupportedError when the description falls outside the compilable
// subset (any RTL-visible value wider than 64 bits, among others).
func Generate(d *isdl.Description) (string, error) {
	g := &gen{
		d:        d,
		haltSid:  -1,
		maxSize:  d.MaxSize(),
		opOf:     map[*isdl.Operation]*opGen{},
		aliasIdx: map[*isdl.Alias]int{},
		emitted:  map[string]bool{},
	}
	pc, im := d.PC(), d.InstructionMemory()
	if pc == nil || im == nil {
		return "", g.unsupported("description lacks a program counter or instruction memory")
	}
	g.pcSid, g.imSid = pc.Index, im.Index
	if pc.Width > 64 {
		return "", g.unsupported("program counter %s is %d bits wide (max 64)", pc.Name, pc.Width)
	}
	if hlt, ok := d.StorageByName["HLT"]; ok {
		g.haltSid = hlt.Index
	}
	g.imgW = im.Width * g.maxSize
	for i, a := range d.Aliases {
		g.aliasIdx[a] = i
	}
	id := 0
	for fi, f := range d.Fields {
		for _, op := range f.Ops {
			og := &opGen{id: id, fi: fi, op: op}
			og.params, og.nslots = layoutParams(op.Params, 0)
			g.ops = append(g.ops, og)
			g.opOf[op] = og
			id++
		}
	}

	var sb strings.Builder
	name := d.Name
	if name == "" {
		name = "machine"
	}
	repl := strings.NewReplacer(
		"@GENV@", strconv.Itoa(GeneratorVersion),
		"@MACHINE@", name,
		"@PROTO@", strconv.Itoa(ProtoVersion),
		"@NF@", strconv.Itoa(len(d.Fields)),
		"@IMSID@", strconv.Itoa(g.imSid),
		"@PCSID@", strconv.Itoa(g.pcSid),
		"@PCMASK@", hexU(maskU(pc.Width)),
		"@IMDEPTH@", strconv.Itoa(im.Depth),
		"@IMGW@", strconv.Itoa(g.imgW),
		"@IMGWORDS@", strconv.Itoa((g.imgW+63)/64),
	)
	sb.WriteString(repl.Replace(runtimeTemplate))

	w := &cw{}
	w.ln("")
	w.ln("const fingerprint = %q", Fingerprint(d))
	w.ln("const machineName = %q", name)
	w.ln("")
	g.emitTables(w)
	g.emitHaltCheck(w)
	if err := g.emitDecode(w); err != nil {
		return "", err
	}
	if err := g.emitOps(w); err != nil {
		return "", err
	}
	g.emitStacks(w)
	sb.WriteString(w.sb.String())
	for _, m := range g.methods {
		sb.WriteString(m)
	}
	return sb.String(), nil
}

// emitTables writes the storage metadata and operation name tables.
func (g *gen) emitTables(w *cw) {
	w.ln("var stInfo = [...]struct {")
	w.in()
	w.ln("name                string")
	w.ln("width, depth, words int")
	w.ln("mask, topMask       uint64")
	w.out()
	w.ln("}{")
	w.in()
	for _, st := range g.d.Storage {
		words := (st.Width + 63) / 64
		mask := uint64(0)
		if st.Width <= 64 {
			mask = maskU(st.Width)
		}
		top := maskU(st.Width)
		if rem := st.Width % 64; st.Width > 64 && rem != 0 {
			top = uint64(1)<<uint(rem) - 1
		} else if st.Width > 64 {
			top = ^uint64(0)
		}
		w.ln("{name: %q, width: %d, depth: %d, words: %d, mask: %s, topMask: %s},",
			st.Name, st.Width, st.Depth, words, hexU(mask), hexU(top))
	}
	w.out()
	w.ln("}")
	w.ln("")
	w.ln("var opNames = [...]string{")
	w.in()
	for _, og := range g.ops {
		w.ln("%q,", og.op.QualName())
	}
	w.out()
	w.ln("}")
	w.ln("")
	// Whether each op does any work in the action / side-effect phase:
	// decode uses these to precompute the working-field lists so the step
	// loop skips nop fields entirely.
	boolTable := func(name string, has func(og *opGen) bool) {
		w.ln("var %s = [...]bool{", name)
		w.in()
		for _, og := range g.ops {
			w.ln("%v,", has(og))
		}
		w.out()
		w.ln("}")
		w.ln("")
	}
	boolTable("opHasAct", func(og *opGen) bool { return len(og.op.Action) > 0 })
	boolTable("opHasSide", func(og *opGen) bool {
		return len(og.op.SideEffect) > 0 || paramsHaveSide(og.params)
	})
	w.ln("// wrv binds a value onto a write destination (assignment commit).")
	w.ln("func wrv(w wr, v uint64) wr {")
	w.in()
	w.ln("w.val = v")
	w.ln("return w")
	w.out()
	w.ln("}")
	w.ln("")
}

func (g *gen) emitHaltCheck(w *cw) {
	w.ln("// haltCheck is the \"HLT storage became non-zero\" test of xsim.Step.")
	w.ln("func haltCheck(m *mach) bool {")
	w.in()
	if g.haltSid >= 0 {
		w.ln("return m.st[%d][0] != 0", g.haltSid)
	} else {
		w.ln("return false")
	}
	w.out()
	w.ln("}")
	w.ln("")
}

// emitStacks writes push/pop methods per stack storage plus the pushTo
// commit dispatcher. Error strings match internal/state exactly. sem
// admits only stacks as push and pop targets.
func (g *gen) emitStacks(w *cw) {
	var stacks []int
	for i, st := range g.d.Storage {
		if st.Kind == isdl.StStack {
			stacks = append(stacks, i)
		}
	}
	for _, sid := range stacks {
		st := g.d.Storage[sid]
		w.ln("func (m *mach) push%d(v uint64) {", sid)
		w.in()
		w.ln("if m.sp[%d] >= %d {", sid, st.Depth)
		w.in()
		w.ln("panic(&simErr{m.curPC, %q})", fmt.Sprintf("state: stack %s overflow (depth %d)", st.Name, st.Depth))
		w.out()
		w.ln("}")
		w.ln("m.st[%d][m.sp[%d]] = v & %s", sid, sid, hexU(maskU(st.Width)))
		w.ln("m.sp[%d]++", sid)
		w.out()
		w.ln("}")
		w.ln("")
		w.ln("func (m *mach) pop%d() uint64 {", sid)
		w.in()
		w.ln("if m.sp[%d] == 0 {", sid)
		w.in()
		w.ln("panic(&simErr{m.curPC, %q})", fmt.Sprintf("state: stack %s underflow", st.Name))
		w.out()
		w.ln("}")
		w.ln("m.sp[%d]--", sid)
		w.ln("return m.st[%d][m.sp[%d]]", sid, sid)
		w.out()
		w.ln("}")
		w.ln("")
	}
	w.ln("func (m *mach) pushTo(sid int, v uint64) {")
	w.in()
	if len(stacks) > 0 {
		w.ln("switch sid {")
		for _, sid := range stacks {
			w.ln("case %d:", sid)
			w.in()
			w.ln("m.push%d(v)", sid)
			w.out()
		}
		w.ln("}")
	} else {
		w.ln("_ = sid")
		w.ln("_ = v")
	}
	w.out()
	w.ln("}")
	w.ln("")
}

// maskChunks splits a bitvec into 64-bit little-endian words (gen time).
func maskChunks(v bitvec.Value) []uint64 {
	n := (v.Width() + 63) / 64
	out := make([]uint64, n)
	for c := 0; c < n; c++ {
		lo := c * 64
		hi := lo + 63
		if hi >= v.Width() {
			hi = v.Width() - 1
		}
		out[c] = v.Slice(hi, lo).Uint64()
	}
	return out
}

// sigBits are the (image bit, param bit) pairs that encode one parameter.
type sigBitPair struct{ pos, pbit int }

// extractExpr builds the Go expression gathering a parameter's return value
// out of the instruction image (or a non-terminal return value). src maps a
// 64-bit word index to its Go expression; imgBits bounds readable bits.
func extractExpr(sig *isdl.Signature, param, retWidth, imgBits int, src func(word int) string) string {
	var pairs []sigBitPair
	for i, b := range sig.Bits {
		if b.Kind == isdl.SigParam && b.Param == param && b.PBit < retWidth && i < imgBits {
			pairs = append(pairs, sigBitPair{pos: i, pbit: b.PBit})
		}
	}
	if len(pairs) == 0 {
		return "0"
	}
	// Signature bits iterate in image order; gather maximal runs that are
	// consecutive in both the image and the parameter and stay in one word.
	var terms []string
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) &&
			pairs[j].pos == pairs[j-1].pos+1 &&
			pairs[j].pbit == pairs[j-1].pbit+1 &&
			pairs[j].pos/64 == pairs[i].pos/64 {
			j++
		}
		run := pairs[i:j]
		word, off, p0 := run[0].pos/64, run[0].pos%64, run[0].pbit
		m := maskU(len(run))
		t := src(word)
		if off > 0 {
			t = fmt.Sprintf("%s>>%d", t, off)
		}
		t = fmt.Sprintf("%s&%s", t, hexU(m))
		if p0 > 0 {
			t = fmt.Sprintf("(%s)<<%d", t, p0)
		}
		terms = append(terms, t)
		i = j
	}
	if len(terms) == 1 {
		return "(" + terms[0] + ")"
	}
	return "(" + strings.Join(terms, " | ") + ")"
}

// matchCond builds the constant mask/compare condition for a signature over
// the image words. Returns "true" when the signature has no constant bits.
func matchCond(sig *isdl.Signature, imgBits int, src func(word int) string) string {
	mask, val := sig.ConstMask()
	// Constant one-bits beyond the readable image can never match (those
	// bits read as zero); constant zeros there match trivially.
	for i := imgBits; i < len(sig.Bits); i++ {
		if sig.Bits[i].Kind == isdl.SigConst && sig.Bits[i].Const == 1 {
			return "false"
		}
	}
	if imgBits < mask.Width() {
		mask = mask.Trunc(imgBits)
		val = val.Trunc(imgBits)
	}
	mc, vc := maskChunks(mask), maskChunks(val)
	var conds []string
	for c := range mc {
		if mc[c] == 0 {
			continue
		}
		conds = append(conds, fmt.Sprintf("%s&%s == %s", src(c), hexU(mc[c]), hexU(vc[c])))
	}
	if len(conds) == 0 {
		return "true"
	}
	return strings.Join(conds, " && ")
}

// emitDecode writes the generated decode: image fetch, per-field operation
// match + argument extraction + cost folding, constraints — the compiled
// form of decode.Instruction plus xsim.fetch's per-op analysis.
func (g *gen) emitDecode(w *cw) error {
	im := g.d.Storage[g.imSid]
	imgWords := (g.imgW + 63) / 64
	w.ln("func (m *mach) decode(pc int) (*instRec, error) {")
	w.in()
	w.ln("var img [imgWs]uint64")
	// Fetch: maxSize consecutive instruction words concatenated
	// little-endian, each address under isdl.Storage.Addr (xsim.fetch).
	elemWords := (im.Width + 63) / 64
	for k := 0; k < g.maxSize; k++ {
		for j := 0; j < elemWords; j++ {
			nb := im.Width - j*64
			if nb > 64 {
				nb = 64
			}
			var srcExpr string
			if elemWords == 1 {
				srcExpr = fmt.Sprintf("m.st[imSid][wrapIdx(uint64(pc+%d), %d)]", k, im.Depth)
			} else {
				srcExpr = fmt.Sprintf("m.st[imSid][wrapIdx(uint64(pc+%d), %d)*%d+%d]", k, im.Depth, elemWords, j)
			}
			dstBit := k*im.Width + j*64
			wl, off := dstBit/64, dstBit%64
			if off == 0 {
				w.ln("img[%d] |= %s", wl, srcExpr)
			} else {
				w.ln("img[%d] |= %s << %d", wl, srcExpr, off)
				if off+nb > 64 && wl+1 < imgWords {
					w.ln("img[%d] |= %s >> %d", wl+1, srcExpr, 64-off)
				}
			}
		}
	}
	w.ln("ii := &instRec{size: 1}")
	src := func(word int) string { return fmt.Sprintf("img[%d]", word) }
	for fi, f := range g.d.Fields {
		w.ln("{")
		w.in()
		w.ln("o := &ii.ops[%d]", fi)
		w.ln("switch {")
		for _, op := range f.Ops {
			og := g.opOf[op]
			w.ln("case %s:", matchCond(&op.Sig, g.imgW, src))
			w.in()
			w.ln("o.op = %d", og.id)
			if og.nslots > 0 {
				w.ln("a := make([]uint64, %d)", og.nslots)
				if err := g.emitArgExtract(w, og.params, &op.Sig, g.imgW, src); err != nil {
					return err
				}
				w.ln("o.a = a")
			}
			active := len(op.Action) > 0 || len(op.SideEffect) > 0
			w.ln("o.lat, o.usage, o.cyc = %d, %d, %d", op.Timing.Latency, op.Timing.Usage, op.Costs.Cycle)
			if active {
				w.ln("o.active = true")
			}
			g.emitAdders(w, og.params, active)
			if og.nslots > 0 {
				w.ln("o.reads = m.rs%d(a)", og.id)
			} else {
				w.ln("o.reads = m.rs%d(nil)", og.id)
			}
			if op.Costs.Size > 1 {
				w.ln("if %d > ii.size {", op.Costs.Size)
				w.in()
				w.ln("ii.size = %d", op.Costs.Size)
				w.out()
				w.ln("}")
			}
			w.out()
		}
		w.ln("default:")
		w.in()
		w.ln("return nil, fmt.Errorf(\"illegal instruction: no operation of field %%s matches %%s\", %q, hexv(imgW, img[:]))", f.Name)
		w.out()
		w.ln("}")
		w.ln("if o.cyc > ii.cyc {")
		w.in()
		w.ln("ii.cyc = o.cyc")
		w.out()
		w.ln("}")
		w.out()
		w.ln("}")
	}
	for _, c := range g.d.Constraints {
		cond, err := g.cexpr(c.Expr)
		if err != nil {
			return err
		}
		w.ln("if !(%s) {", cond)
		w.in()
		w.ln("return nil, fmt.Errorf(\"%%s\", %q)", "constraint violated: "+c.Text)
		w.out()
		w.ln("}")
	}
	// Operation counters exist from first decode on (zero-count entries in
	// OpCounts) — but only once the whole instruction decoded legally.
	w.ln("for f := 0; f < nf; f++ {")
	w.in()
	w.ln("m.opSeen[ii.ops[f].op] = true")
	w.ln("if opHasAct[ii.ops[f].op] {")
	w.in()
	w.ln("ii.actF[ii.nact] = uint8(f)")
	w.ln("ii.nact++")
	w.out()
	w.ln("}")
	w.ln("if opHasSide[ii.ops[f].op] {")
	w.in()
	w.ln("ii.sideF[ii.nside] = uint8(f)")
	w.ln("ii.nside++")
	w.out()
	w.ln("}")
	w.out()
	w.ln("}")
	w.ln("return ii, nil")
	w.out()
	w.ln("}")
	w.ln("")
	return nil
}

// emitArgExtract extracts every parameter of a (sub)signature into its
// slots, recursing through non-terminal options (decode.extractArgs + NT).
func (g *gen) emitArgExtract(w *cw, params []paramLoc, sig *isdl.Signature, imgBits int, src func(int) string) error {
	for i := range params {
		pl := &params[i]
		rw := pl.p.RetWidth()
		if rw < 1 || rw > 64 {
			return g.unsupported("parameter %s return width %d (want 1..64)", pl.p.Name, rw)
		}
		if pl.p.Token != nil {
			w.ln("a[%d] = %s", pl.slot, extractExpr(sig, i, rw, imgBits, src))
			continue
		}
		// Non-terminal: extract the return bitfield, decode the option.
		rv := fmt.Sprintf("r%d", g.tmp)
		g.tmp++
		w.ln("%s := %s", rv, extractExpr(sig, i, rw, imgBits, src))
		rsrc := func(int) string { return rv }
		w.ln("switch {")
		for oi, os := range pl.opts {
			w.ln("case %s:", matchCond(&os.opt.Sig, rw, rsrc))
			w.in()
			w.ln("a[%d] = %d", pl.slot, oi)
			if err := g.emitArgExtract(w, os.params, &os.opt.Sig, rw, rsrc); err != nil {
				return err
			}
			w.out()
		}
		w.ln("default:")
		w.in()
		w.ln("return nil, fmt.Errorf(\"illegal instruction: no option of non-terminal %%s matches %%s\", %q, hexv(%d, []uint64{%s}))",
			pl.p.NT.Name, rw, rv)
		w.out()
		w.ln("}")
	}
	return nil
}

// emitAdders folds decoded-option costs/timing adders into the opInst
// (xsim.addOptionCosts): additive, recursive, in parameter order.
func (g *gen) emitAdders(w *cw, params []paramLoc, baseActive bool) {
	for i := range params {
		pl := &params[i]
		if pl.p.NT == nil {
			continue
		}
		if !addersNeeded(pl, baseActive) {
			// Still recurse: nested options may need adders even when this
			// level has none — addersNeeded already checked the subtree.
			continue
		}
		w.ln("switch a[%d] {", pl.slot)
		for oi, os := range pl.opts {
			var lines []func()
			o := os.opt
			if o.Costs.Cycle != 0 {
				lines = append(lines, func() { w.ln("o.cyc += %d", o.Costs.Cycle) })
			}
			if o.Timing.Latency != 0 {
				lines = append(lines, func() { w.ln("o.lat += %d", o.Timing.Latency) })
			}
			if o.Timing.Usage != 0 {
				lines = append(lines, func() { w.ln("o.usage += %d", o.Timing.Usage) })
			}
			if len(o.SideEffect) > 0 && !baseActive {
				lines = append(lines, func() { w.ln("o.active = true") })
			}
			sub := &cw{indent: w.indent + 1}
			g.emitAdders(sub, os.params, baseActive || len(o.SideEffect) > 0)
			if len(lines) == 0 && sub.sb.Len() == 0 {
				continue
			}
			w.ln("case %d:", oi)
			w.in()
			for _, fn := range lines {
				fn()
			}
			w.sb.WriteString(sub.sb.String())
			w.out()
		}
		w.ln("}")
	}
}

// addersNeeded reports whether any option in the subtree contributes a
// non-zero cost/timing adder or a side effect.
func addersNeeded(pl *paramLoc, baseActive bool) bool {
	for _, os := range pl.opts {
		o := os.opt
		if o.Costs.Cycle != 0 || o.Timing.Latency != 0 || o.Timing.Usage != 0 {
			return true
		}
		if len(o.SideEffect) > 0 && !baseActive {
			return true
		}
		for i := range os.params {
			sub := &os.params[i]
			if sub.p.NT != nil && addersNeeded(sub, baseActive || len(o.SideEffect) > 0) {
				return true
			}
		}
	}
	return false
}

// cexpr compiles a constraint expression over the decoded operation ids.
func (g *gen) cexpr(e isdl.CExpr) (string, error) {
	switch e := e.(type) {
	case *isdl.CAtom:
		og := g.opOf[e.ResolvedOp]
		if og == nil {
			return "", g.unsupported("constraint references unknown operation %s.%s", e.Field, e.Op)
		}
		return fmt.Sprintf("ii.ops[%d].op == %d", og.fi, og.id), nil
	case *isdl.CNot:
		x, err := g.cexpr(e.X)
		if err != nil {
			return "", err
		}
		return "!(" + x + ")", nil
	case *isdl.CBin:
		x, err := g.cexpr(e.X)
		if err != nil {
			return "", err
		}
		y, err := g.cexpr(e.Y)
		if err != nil {
			return "", err
		}
		switch e.Op {
		case "&":
			return "(" + x + " && " + y + ")", nil
		case "|":
			return "(" + x + " || " + y + ")", nil
		case "->":
			return "(!(" + x + ") || " + y + ")", nil
		}
	}
	return "", g.unsupported("constraint expression form")
}

// emitOps writes the per-operation methods (action/side/read-set) and the
// phase dispatchers.
func (g *gen) emitOps(w *cw) error {
	var acts, sides []*opGen
	for _, og := range g.ops {
		hasAct := len(og.op.Action) > 0
		hasSide := len(og.op.SideEffect) > 0 || paramsHaveSide(og.params)
		if hasAct {
			acts = append(acts, og)
			if err := g.emitActionMethod(og); err != nil {
				return err
			}
		}
		if hasSide {
			sides = append(sides, og)
			if err := g.emitSideMethod(og); err != nil {
				return err
			}
		}
		if err := g.emitRS(og); err != nil {
			return err
		}
	}
	emitDispatch := func(name string, list []*opGen, prefix string) {
		w.ln("func (m *mach) %s(o *opInst, ph *phaseBuf) {", name)
		w.in()
		if len(list) > 0 {
			w.ln("switch o.op {")
			for _, og := range list {
				w.ln("case %d:", og.id)
				w.in()
				w.ln("m.%s%d(o.a, ph)", prefix, og.id)
				w.out()
			}
			w.ln("}")
		} else {
			w.ln("_ = o")
			w.ln("_ = ph")
		}
		w.out()
		w.ln("}")
		w.ln("")
	}
	emitDispatch("doAction", acts, "ac")
	emitDispatch("doSide", sides, "se")
	return nil
}

func paramsHaveSide(params []paramLoc) bool {
	for i := range params {
		for _, os := range params[i].opts {
			if len(os.opt.SideEffect) > 0 || paramsHaveSide(os.params) {
				return true
			}
		}
	}
	return false
}
