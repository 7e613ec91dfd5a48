package compiler

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/decode"
	"repro/internal/isdl"
)

// The VLIW scheduler: in-order greedy packing of the selected operations
// into long instructions. An operation joins the open bundle only when its
// field slot is free, the combination satisfies every ISDL constraint, and
// VLIW read-before-write semantics preserve the sequential meaning:
//
//   - it must not read a location a bundle member writes (it would see the
//     old value),
//   - it must not write a location a bundle member writes (write order),
//   - reading a location a bundle member reads, or that it later overwrites
//     (WAR), is fine — both orders see the old value.
//
// Control-transfer operations may join a bundle last (SPAM's "mac || djnz"
// idiom) and then seal it.
func schedule(d *isdl.Description, emits []emitted, noPacking bool) string {
	var sb strings.Builder

	nops := make([]*isdl.Operation, len(d.Fields))
	for i, f := range d.Fields {
		if op, ok := f.ByName["nop"]; ok && len(op.Params) == 0 {
			nops[i] = op
		}
	}

	var bundle []*emitted
	// sel is canJoin's trial instruction, one operation per field, reused
	// across calls.
	sel := make([]*isdl.Operation, len(d.Fields))
	flush := func() {
		if len(bundle) == 0 {
			return
		}
		parts := make([]string, len(bundle))
		for i, e := range bundle {
			parts[i] = asm.RenderOp(d, e.dop, e.syms)
		}
		fmt.Fprintf(&sb, "    %s\n", strings.Join(parts, " || "))
		bundle = bundle[:0]
	}

	canJoin := func(e *emitted) bool {
		if len(bundle) == 0 {
			return true
		}
		if noPacking {
			return false
		}
		clear(sel)
		for _, m := range bundle {
			if m.control {
				return false
			}
			fi := m.dop.Op.Field.Index
			if sel[fi] != nil {
				return false
			}
			sel[fi] = m.dop.Op
			// Hazards against this member.
			for _, r := range e.reads {
				for _, w := range m.writes {
					if r == w {
						return false
					}
				}
			}
			for _, w := range e.writes {
				for _, mw := range m.writes {
					if w == mw {
						return false
					}
				}
			}
		}
		fi := e.dop.Op.Field.Index
		if sel[fi] != nil {
			return false
		}
		sel[fi] = e.dop.Op
		// Fill the remaining fields with nops for the constraint check.
		for i := range sel {
			if sel[i] != nil {
				continue
			}
			if nops[i] == nil {
				return false
			}
			sel[i] = nops[i]
		}
		return decode.CheckConstraints(d, sel) == nil
	}

	for i := range emits {
		e := &emits[i]
		if e.label != "" {
			flush()
			fmt.Fprintf(&sb, "%s:\n", e.label)
			continue
		}
		if !canJoin(e) {
			flush()
		}
		bundle = append(bundle, e)
		if e.control {
			flush()
		}
	}
	flush()
	return sb.String()
}
