package gensim

// runtimeTemplate is the description-independent half of every generated
// simulator: machine scaffolding, the two-phase step/commit scheduler
// mirroring internal/xsim exactly, and the JSON-lines protocol main loop.
// The generator substitutes the @…@ placeholders and appends the generated
// half (storage tables, decode, per-operation methods).
//
// Replication contract (enforced by the differential gauntlet): every
// counter increment, evaluation order, address rule and error string below
// matches internal/xsim + internal/state semantics bit for bit.
const runtimeTemplate = `// Code generated by repro gensim v@GENV@ for machine @MACHINE@. DO NOT EDIT.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

const (
	nf      = @NF@
	imSid   = @IMSID@
	pcSid   = @PCSID@
	pcMask  = @PCMASK@
	imDepth = @IMDEPTH@
	imgW    = @IMGW@
	imgWs   = @IMGWORDS@
)

// wr is one collected state update: a bit range of one storage location.
// hi -1 means the whole element. idx is an address: the generated code
// applies wrapIdx where it computes an index.
type wr struct {
	sid, idx, hi, lo int
	val              uint64
}

type pushOp struct {
	sid int
	val uint64
}

type phaseBuf struct {
	wrs    []wr
	pushes []pushOp
}

type pendWr struct {
	w        wr
	commitAt uint64
}

type rloc struct {
	sid, idx int
}

type opInst struct {
	op     int
	a      []uint64
	lat    int
	usage  int
	cyc    int
	active bool
	reads  []rloc
}

type instRec struct {
	size int
	cyc  int
	ops  [nf]opInst
	// Fields whose op has a non-empty action / side effect, precomputed at
	// decode so the step loop touches only fields that do work (a VLIW word
	// is mostly nops).
	actF  [nf]uint8
	nact  int
	sideF [nf]uint8
	nside int
}

// simErr is a simulation fault; format matches xsim.RuntimeError.
type simErr struct {
	pc  int
	msg string
}

func (e *simErr) Error() string { return fmt.Sprintf("runtime error at %#x: %s", e.pc, e.msg) }

type mach struct {
	st [][]uint64
	sp []int

	cycle       uint64
	fieldFreeAt [nf]uint64
	pending     []pendWr
	halted      bool
	stopErr     error
	curPC       int

	instructions uint64
	dataStalls   uint64
	structStalls uint64
	reads        uint64
	writes       uint64
	opCount      []uint64
	opSeen       []bool
	fieldIssue   [nf]uint64
	decodeHits   uint64
	decodeMisses uint64

	dense     []*instRec
	denseBase int
	ov        map[int]*instRec
	ph        [nf]phaseBuf
}

func newMach() *mach {
	m := &mach{
		st:      make([][]uint64, len(stInfo)),
		sp:      make([]int, len(stInfo)),
		opCount: make([]uint64, len(opNames)),
		opSeen:  make([]bool, len(opNames)),
		ov:      map[int]*instRec{},
	}
	for i := range stInfo {
		m.st[i] = make([]uint64, stInfo[i].depth*stInfo[i].words)
	}
	return m
}

// wrapIdx is isdl.Storage.Addr: the index value, unsigned, modulo the
// depth d.
func wrapIdx(v uint64, d int) int {
	if v < uint64(d) {
		return int(v)
	}
	return int(v % uint64(d))
}

// rd is a counted read of address i (eval's stats.Reads++ then Handle.Get).
func (m *mach) rd(sid, i int) uint64 {
	m.reads++
	return m.st[sid][i]
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func hshl(x, n uint64, w int, mask uint64) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return x << n & mask
}

func hshr(x, n uint64, w int) uint64 {
	if n >= uint64(w) {
		return 0
	}
	return x >> n
}

func hasr(x, n uint64, w int, mask uint64) uint64 {
	if x>>uint(w-1)&1 == 0 {
		return hshr(x, n, w)
	}
	if n >= uint64(w) {
		return mask
	}
	return (x>>n | ^(mask >> n)) & mask
}

func hdivu(a, b, mask uint64) uint64 {
	if b == 0 {
		return mask
	}
	return a / b
}

func hmodu(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return a % b
}

func hcarry(a, b uint64, w int) bool {
	if w == 64 {
		return a+b < a
	}
	return (a+b)>>uint(w)&1 == 1
}

func hsext(x uint64, sb uint, hi uint64) uint64 {
	if x>>sb&1 == 1 {
		return x | hi
	}
	return x
}

func haddov(a, b uint64, sb uint) bool {
	s := a + b
	return a>>sb&1 == b>>sb&1 && s>>sb&1 != a>>sb&1
}

func hsubov(a, b uint64, sb uint) bool {
	s := a - b
	return a>>sb&1 != b>>sb&1 && s>>sb&1 != a>>sb&1
}

// sxt sign-extends a w-bit canonical value to int64 for signed compares.
func sxt(x uint64, w int) int64 {
	if w < 64 && x>>uint(w-1)&1 == 1 {
		x |= ^uint64(0) << uint(w)
	}
	return int64(x)
}

// sliceLoc composes a bit-slice onto a write destination (evalLoc SliceE).
func sliceLoc(b wr, hi, lo int) wr {
	if b.hi >= 0 {
		return wr{sid: b.sid, idx: b.idx, hi: b.lo + hi, lo: b.lo + lo}
	}
	b.hi, b.lo = hi, lo
	return b
}

// addr appends a read-set entry unless present (first occurrence wins).
func addr(out []rloc, sid, idx int) []rloc {
	for _, r := range out {
		if r.sid == sid && r.idx == idx {
			return out
		}
	}
	return append(out, rloc{sid: sid, idx: idx})
}

// apply commits one write: splice or replace, count it, and invalidate
// self-modified instruction decodes (xsim.applyWrite + the IM watch).
func (m *mach) apply(w wr) {
	inf := &stInfo[w.sid]
	old := m.st[w.sid][w.idx]
	var nv uint64
	if w.hi >= 0 {
		nv = old
		for b := w.lo; b <= w.hi && b < inf.width; b++ {
			bit := w.val >> uint(b-w.lo) & 1
			nv = nv&^(1<<uint(b)) | bit<<uint(b)
		}
	} else {
		nv = w.val & inf.mask
	}
	m.st[w.sid][w.idx] = nv
	m.writes++
	if w.sid == imSid && old != nv {
		m.invalidate(w.idx)
	}
}

func (m *mach) invalidate(addr int) {
	if i := addr - m.denseBase; i >= 0 && i < len(m.dense) {
		m.dense[i] = nil
		return
	}
	delete(m.ov, addr)
}

func (m *mach) commitPh(ph *phaseBuf) {
	for _, w := range ph.wrs {
		m.apply(w)
	}
	for _, p := range ph.pushes {
		m.pushTo(p.sid, p.val)
	}
}

// commitLat queues latency-delayed writes; PC writes and stack pushes
// commit immediately (xsim.commitWithLatency).
func (m *mach) commitLat(ph *phaseBuf, lat int, issue uint64) {
	if lat <= 1 {
		m.commitPh(ph)
		return
	}
	for _, w := range ph.wrs {
		if w.sid == pcSid {
			m.apply(w)
			continue
		}
		m.pending = append(m.pending, pendWr{w: w, commitAt: issue + uint64(lat) - 1})
	}
	for _, p := range ph.pushes {
		m.pushTo(p.sid, p.val)
	}
}

func (m *mach) commitPendingBefore(issue uint64) {
	if len(m.pending) == 0 {
		return
	}
	kept := m.pending[:0]
	for _, p := range m.pending {
		if p.commitAt < issue {
			m.apply(p.w)
		} else {
			kept = append(kept, p)
		}
	}
	m.pending = kept
}

func instReads(ii *instRec, w wr) bool {
	for f := range ii.ops {
		for _, r := range ii.ops[f].reads {
			if r.sid != w.sid {
				continue
			}
			if r.idx < 0 || r.idx == w.idx {
				return true
			}
		}
	}
	return false
}

// fetch serves the decode cache (dense window + overflow map) and decodes
// on miss — xsim.fetch without the AST.
func (m *mach) fetch(pc int) (*instRec, error) {
	di := pc - m.denseBase
	if di >= 0 && di < len(m.dense) {
		if ii := m.dense[di]; ii != nil {
			m.decodeHits++
			return ii, nil
		}
	} else if ii, ok := m.ov[pc]; ok {
		m.decodeHits++
		return ii, nil
	}
	m.decodeMisses++
	ii, err := m.decode(pc)
	if err != nil {
		return nil, err
	}
	if di >= 0 && di < len(m.dense) {
		m.dense[di] = ii
	} else {
		m.ov[pc] = ii
	}
	return ii, nil
}

// step executes one instruction, mirroring xsim.Step phase for phase.
// Simulation faults surface as *simErr panics caught by run's recover (one
// defer per run, not per step — this loop is the simulator's hot path).
func (m *mach) step() error {
	pc := int(m.st[pcSid][0])
	m.curPC = pc
	ii, err := m.fetch(pc)
	if err != nil {
		m.halted = true
		m.stopErr = err
		return err
	}

	issue := m.cycle
	for f := 0; f < nf; f++ {
		if m.fieldFreeAt[f] > issue {
			issue = m.fieldFreeAt[f]
		}
	}
	m.structStalls += issue - m.cycle
	dataStart := issue
	for changed := true; changed; {
		changed = false
		for _, p := range m.pending {
			if p.commitAt >= issue && instReads(ii, p.w) {
				issue = p.commitAt + 1
				changed = true
			}
		}
	}
	m.dataStalls += issue - dataStart
	m.commitPendingBefore(issue)

	// PC reads as the next instruction's address during execution.
	m.st[pcSid][0] = uint64(pc+ii.size) & pcMask

	m.execPhase(ii, issue, false)
	m.execPhase(ii, issue, true)

	for f := 0; f < nf; f++ {
		o := &ii.ops[f]
		m.fieldFreeAt[f] = issue + uint64(o.usage)
		m.opCount[o.op]++
		if o.active {
			m.fieldIssue[f]++
		}
	}
	m.cycle = issue + uint64(ii.cyc)
	m.instructions++

	if haltCheck(m) {
		m.halted = true
		m.commitPendingBefore(^uint64(0))
	}
	return nil
}

// execPhase evaluates one phase (actions or side effects) of every working
// field against pre-commit state, then commits in field order — identical
// ordering to the all-fields loop, minus the nop fields.
func (m *mach) execPhase(ii *instRec, issue uint64, side bool) {
	fs, n := &ii.actF, ii.nact
	if side {
		fs, n = &ii.sideF, ii.nside
	}
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		f := int(fs[i])
		ph := &m.ph[f]
		ph.wrs = ph.wrs[:0]
		ph.pushes = ph.pushes[:0]
		if side {
			m.doSide(&ii.ops[f], ph)
		} else {
			m.doAction(&ii.ops[f], ph)
		}
	}
	for i := 0; i < n; i++ {
		f := int(fs[i])
		m.commitLat(&m.ph[f], ii.ops[f].lat, issue)
	}
}

// run executes at most limit more instructions (limit <= 0: until halt). A
// fault halts the machine and stays in stopErr until the next load.
func (m *mach) run(limit int64) {
	defer func() {
		if r := recover(); r != nil {
			se, ok := r.(*simErr)
			if !ok {
				panic(r)
			}
			m.halted = true
			m.stopErr = se
		}
	}()
	for n := int64(0); !m.halted && (limit <= 0 || n < limit); n++ {
		if m.step() != nil {
			return
		}
	}
}

// hexv renders a width-annotated hex literal exactly like bitvec.String.
func hexv(w int, ws []uint64) string {
	if w == 0 {
		return "0'h0"
	}
	digits := (w + 3) / 4
	s := fmt.Sprintf("%d'h", w)
	started := false
	for i := digits - 1; i >= 0; i-- {
		var word uint64
		if wi := i * 4 / 64; wi < len(ws) {
			word = ws[wi]
		}
		nib := word >> (uint(i*4) % 64) & 0xf
		if !started && nib == 0 && i != 0 {
			continue
		}
		started = true
		s += fmt.Sprintf("%x", nib)
	}
	return s
}

// hexOf renders little-endian words as a minimal plain hex string.
func hexOf(ws []uint64) string {
	i := len(ws) - 1
	for i > 0 && ws[i] == 0 {
		i--
	}
	s := fmt.Sprintf("%x", ws[i])
	for i--; i >= 0; i-- {
		s += fmt.Sprintf("%016x", ws[i])
	}
	return s
}

func parseHex(s string) ([]uint64, error) {
	if s == "" {
		return []uint64{0}, nil
	}
	ws := make([]uint64, (len(s)+15)/16)
	for i := 0; i < len(s); i++ {
		c := s[len(s)-1-i]
		var d uint64
		switch {
		case c >= '0' && c <= '9':
			d = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			d = uint64(c-'A') + 10
		default:
			return nil, fmt.Errorf("bad hex %q", s)
		}
		ws[i/16] |= d << (uint(i%16) * 4)
	}
	return ws, nil
}

// setElem stores canonical words into element idx of a storage.
func (m *mach) setElem(sid, idx int, ws []uint64) {
	inf := &stInfo[sid]
	base := idx * inf.words
	for j := 0; j < inf.words; j++ {
		var w uint64
		if j < len(ws) {
			w = ws[j]
		}
		if j == inf.words-1 {
			w &= inf.topMask
		}
		m.st[sid][base+j] = w
	}
}

type handshake struct {
	Proto   int    ` + "`json:\"gensim\"`" + `
	FP      string ` + "`json:\"fp\"`" + `
	Machine string ` + "`json:\"machine\"`" + `
}

type dataReq struct {
	Storage string   ` + "`json:\"storage\"`" + `
	Base    int      ` + "`json:\"base\"`" + `
	Values  []string ` + "`json:\"values\"`" + `
}

// request is one host command: load (base, words, data, entry), run
// (limit), state or quit.
type request struct {
	Op    string    ` + "`json:\"op\"`" + `
	Base  int       ` + "`json:\"base\"`" + `
	Words []string  ` + "`json:\"words\"`" + `
	Data  []dataReq ` + "`json:\"data,omitempty\"`" + `
	Entry int       ` + "`json:\"entry\"`" + `
	Limit int64     ` + "`json:\"limit\"`" + `
}

type stateResp struct {
	Storage string   ` + "`json:\"storage\"`" + `
	Values  []string ` + "`json:\"values\"`" + `
}

type response struct {
	Err          string            ` + "`json:\"err,omitempty\"`" + `
	Fault        string            ` + "`json:\"fault,omitempty\"`" + `
	Halted       bool              ` + "`json:\"halted\"`" + `
	Cycle        uint64            ` + "`json:\"cycle\"`" + `
	Instructions uint64            ` + "`json:\"instructions\"`" + `
	DataStalls   uint64            ` + "`json:\"data_stalls\"`" + `
	StructStalls uint64            ` + "`json:\"struct_stalls\"`" + `
	Reads        uint64            ` + "`json:\"reads\"`" + `
	Writes       uint64            ` + "`json:\"writes\"`" + `
	OpCounts     map[string]uint64 ` + "`json:\"op_counts,omitempty\"`" + `
	FieldIssue   []uint64          ` + "`json:\"field_issue,omitempty\"`" + `
	DecodeHits   uint64            ` + "`json:\"decode_hits\"`" + `
	DecodeMisses uint64            ` + "`json:\"decode_misses\"`" + `
	RunNs        int64             ` + "`json:\"run_ns\"`" + `
	State        []stateResp       ` + "`json:\"state,omitempty\"`" + `
}

func sidByName(name string) int {
	for i := range stInfo {
		if stInfo[i].name == name {
			return i
		}
	}
	return -1
}

// load resets the machine and loads a program in xsim.Load's order (image,
// data initializers, PC), stopping at the first error with state's text.
// Operations decoded before stay in OpCounts at zero, as in the
// interpreter.
func (m *mach) load(req *request) error {
	seen := m.opSeen
	*m = *newMach()
	m.opSeen = seen
	if req.Base < 0 || req.Base+len(req.Words) > imDepth {
		return fmt.Errorf("state: program of %d words at %d exceeds %s depth %d",
			len(req.Words), req.Base, stInfo[imSid].name, imDepth)
	}
	m.denseBase = req.Base
	m.dense = make([]*instRec, len(req.Words))
	for i, s := range req.Words {
		ws, err := parseHex(s)
		if err != nil {
			return err
		}
		m.setElem(imSid, req.Base+i, ws)
	}
	for _, di := range req.Data {
		sid := sidByName(di.Storage)
		if sid < 0 {
			return fmt.Errorf("state: unknown storage %s", di.Storage)
		}
		if di.Base < 0 || di.Base+len(di.Values) > stInfo[sid].depth {
			return fmt.Errorf("state: %d words at %d exceed %s depth %d",
				len(di.Values), di.Base, di.Storage, stInfo[sid].depth)
		}
		for i, s := range di.Values {
			ws, err := parseHex(s)
			if err != nil {
				return err
			}
			m.setElem(sid, di.Base+i, ws)
		}
	}
	m.st[pcSid][0] = uint64(req.Entry) & pcMask
	return nil
}

// serve answers one request on the machine. Every answer carries the
// machine's statistics; a state answer adds its storage.
func (m *mach) serve(req *request) *response {
	resp := &response{}
	switch req.Op {
	case "load":
		if err := m.load(req); err != nil {
			resp.Err = err.Error()
		}
	case "run":
		t0 := time.Now()
		m.run(req.Limit)
		resp.RunNs = time.Since(t0).Nanoseconds()
	case "state":
		for sid := range stInfo {
			inf := &stInfo[sid]
			vals := make([]string, inf.depth)
			for i := range vals {
				vals[i] = hexOf(m.st[sid][i*inf.words : (i+1)*inf.words])
			}
			resp.State = append(resp.State, stateResp{Storage: inf.name, Values: vals})
		}
	default:
		resp.Err = "unknown op " + req.Op
	}
	if m.stopErr != nil {
		resp.Fault = m.stopErr.Error()
	}
	resp.Halted = m.halted
	resp.Cycle = m.cycle
	resp.Instructions = m.instructions
	resp.DataStalls = m.dataStalls
	resp.StructStalls = m.structStalls
	resp.Reads = m.reads
	resp.Writes = m.writes
	resp.DecodeHits = m.decodeHits
	resp.DecodeMisses = m.decodeMisses
	resp.OpCounts = map[string]uint64{}
	for i := range m.opSeen {
		if m.opSeen[i] {
			resp.OpCounts[opNames[i]] = m.opCount[i]
		}
	}
	resp.FieldIssue = m.fieldIssue[:]
	return resp
}

func main() {
	out := bufio.NewWriter(os.Stdout)
	enc := json.NewEncoder(out)
	enc.Encode(&handshake{Proto: @PROTO@, FP: fingerprint, Machine: machineName})
	out.Flush()
	dec := json.NewDecoder(os.Stdin)
	m := newMach()
	for {
		var req request
		if err := dec.Decode(&req); err != nil || req.Op == "quit" {
			return
		}
		enc.Encode(m.serve(&req))
		out.Flush()
	}
}
`
