package xsim

import (
	"slices"

	"repro/internal/isdl"
)

// This file computes, at load time, the set of storage locations an
// operation instance may read. The interlock of §3.3.3 compares pending
// latency-delayed write-backs against this set to decide how many stall
// cycles an instruction needs. The walk is isdl's (Operation.Reads, shared
// with the simulator generator); this side evaluates the decode-time
// indices it reports against the instance's bound arguments.

// Option implements isdl.ReadScope over the decoded arguments.
func (ev *env) Option(i int) (*isdl.Option, isdl.ReadScope) {
	sub := ev.subs[i]
	return sub.option, sub
}

// readSet lists the locations the operation bound by ev may read, each
// once, in first-visit order.
func readSet(op *isdl.Operation, ev *env) []loc {
	var out []loc
	op.Reads(ev, func(r isdl.Read) {
		l := loc{st: r.Storage, addr: r.Elem, hi: -1, lo: -1}
		if r.Index != nil {
			l.addr = r.Storage.Addr(r.Scope.(*env).eval(r.Index).Uint64())
		}
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	})
	return out
}
