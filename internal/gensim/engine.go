package gensim

import (
	"errors"
	"fmt"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/isdl"
	"repro/internal/xsim"
)

// Engine adapts a generated simulator to xsim.Engine. The child holds one
// loaded machine, so Load, Run and Snapshot each send it one request.
type Engine struct {
	d *isdl.Description
	r *runner

	resp  *wireResp // the machine's figures after the latest load or run; zero at start
	fault error

	perf struct {
		instructions, cycles, dataStalls, structStalls uint64
		decodeHits, decodeMisses                       uint64
		runNs                                          int64
	}
}

var _ xsim.Engine = (*Engine)(nil)

func init() {
	xsim.RegisterAOT(func(d *isdl.Description) (xsim.Engine, error) {
		return NewEngineFor(d)
	})
}

// NewEngineFor generates (or reuses from cache) the specialized simulator
// for d and connects to it. Returns ErrUnavailable / UnsupportedError for
// the fallback ladder.
func NewEngineFor(d *isdl.Description) (*Engine, error) {
	br, err := Build(d)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(br.Bin, br.Fingerprint)
	if err != nil {
		return nil, err
	}
	return &Engine{d: d, r: r, resp: &wireResp{}}, nil
}

// Load resets the child's machine and loads p into it. The child checks
// the program against its storages with state's exact error texts.
func (e *Engine) Load(p *asm.Program) error {
	req := &wireReq{Op: "load", Base: p.Base, Words: make([]string, len(p.Words)), Entry: p.Base}
	for i, w := range p.Words {
		req.Words[i] = encodeHex(w)
	}
	for _, di := range p.Data {
		vals := make([]string, len(di.Values))
		for i, v := range di.Values {
			vals[i] = encodeHex(v)
		}
		req.Data = append(req.Data, wireData{Storage: di.Storage, Base: di.Base, Values: vals})
	}
	for _, s := range []string{"start", "main"} {
		if a, ok := p.Symbols[s]; ok {
			req.Entry = a
			break
		}
	}
	resp, err := e.r.call(req)
	if err != nil {
		return err
	}
	e.record(resp)
	if resp.Err != "" {
		return errors.New(resp.Err)
	}
	return nil
}

// Run executes until halt or limit more instructions (limit <= 0: no
// limit) on the loaded machine.
func (e *Engine) Run(limit int64) error {
	resp, err := e.r.call(&wireReq{Op: "run", Limit: limit})
	if err != nil {
		return err
	}
	prev := e.resp
	e.record(resp)
	e.perf.instructions += resp.Instructions - prev.Instructions
	e.perf.cycles += resp.Cycle - prev.Cycle
	e.perf.dataStalls += resp.DataStalls - prev.DataStalls
	e.perf.structStalls += resp.StructStalls - prev.StructStalls
	e.perf.decodeHits += resp.DecodeHits - prev.DecodeHits
	e.perf.decodeMisses += resp.DecodeMisses - prev.DecodeMisses
	e.perf.runNs += resp.RunNs
	return e.fault
}

// record keeps the figures the child reports after a load or run.
func (e *Engine) record(resp *wireResp) {
	e.resp, e.fault = resp, nil
	if resp.Fault != "" {
		e.fault = errors.New(resp.Fault)
	}
}

// Halted reports whether the simulated machine stopped.
func (e *Engine) Halted() bool { return e.resp.Halted }

// Err returns the fault that halted the machine, if any.
func (e *Engine) Err() error { return e.fault }

// Cycle returns the simulated cycle count.
func (e *Engine) Cycle() uint64 { return e.resp.Cycle }

// Stats returns a snapshot of the architectural statistics, identical to
// the other backends'.
func (e *Engine) Stats() xsim.Stats {
	s := xsim.Stats{
		Cycles:       e.resp.Cycle,
		Instructions: e.resp.Instructions,
		DataStalls:   e.resp.DataStalls,
		StructStalls: e.resp.StructStalls,
		Reads:        e.resp.Reads,
		Writes:       e.resp.Writes,
		OpCounts:     map[string]uint64{},
		FieldIssue:   make([]uint64, len(e.d.Fields)),
	}
	for k, v := range e.resp.OpCounts {
		s.OpCounts[k] = v
	}
	copy(s.FieldIssue, e.resp.FieldIssue)
	return s
}

// Perf returns the engine's own performance counters with derived rates:
// the work the child did in this engine's Runs.
func (e *Engine) Perf() xsim.PerfReport {
	p := xsim.PerfReport{
		Instructions: e.perf.instructions,
		Cycles:       e.perf.cycles,
		DataStalls:   e.perf.dataStalls,
		StructStalls: e.perf.structStalls,
		DecodeHits:   e.perf.decodeHits,
		DecodeMisses: e.perf.decodeMisses,
	}
	p.DeriveRates(e.perf.runNs)
	return p
}

// Snapshot captures every storage element of the child's machine. It is
// empty when the child cannot answer.
func (e *Engine) Snapshot() map[string][]bitvec.Value {
	out := make(map[string][]bitvec.Value, len(e.d.Storage))
	resp, err := e.r.call(&wireReq{Op: "state"})
	if err != nil {
		return out
	}
	for _, ws := range resp.State {
		st, ok := e.d.StorageByName[ws.Storage]
		if !ok {
			continue
		}
		vals := make([]bitvec.Value, len(ws.Values))
		for i, s := range ws.Values {
			vals[i] = decodeHex(st.Width, s)
		}
		out[ws.Storage] = vals
	}
	return out
}

// Close shuts the child simulator down.
func (e *Engine) Close() error {
	if e.r != nil {
		e.r.close()
	}
	return nil
}

// encodeHex renders a bitvec as the wire's plain-hex format (big-endian
// nibbles over the value's 64-bit words).
func encodeHex(v bitvec.Value) string {
	n := (v.Width() + 63) / 64
	if n <= 1 {
		return fmt.Sprintf("%x", v.Uint64())
	}
	ws := make([]uint64, n)
	for c := 0; c < n; c++ {
		hi := c*64 + 63
		if hi >= v.Width() {
			hi = v.Width() - 1
		}
		ws[c] = v.Slice(hi, c*64).Uint64()
	}
	i := n - 1
	for i > 0 && ws[i] == 0 {
		i--
	}
	s := fmt.Sprintf("%x", ws[i])
	for i--; i >= 0; i-- {
		s += fmt.Sprintf("%016x", ws[i])
	}
	return s
}

// decodeHex parses the wire's plain-hex format at the given width.
func decodeHex(width int, s string) bitvec.Value {
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
		}
		ws[i/16] |= d << (uint(i%16) * 4)
	}
	return bitvec.FromWords(width, ws)
}
