package compiler

import (
	"fmt"
	"strings"

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
			parts[i] = renderOpText(d, e)
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

// renderOpText renders one operation as assembly, substituting symbolic
// labels for branch/jump target parameters. The mnemonic is field-qualified
// when ambiguous, exactly as the disassembler would print it.
func renderOpText(d *isdl.Description, e *emitted) string {
	op := e.dop.Op
	var sb strings.Builder
	count := 0
	for _, f := range d.Fields {
		if _, ok := f.ByName[op.Name]; ok {
			count++
		}
	}
	if count > 1 {
		sb.WriteString(op.Field.Name)
		sb.WriteByte('.')
	}
	sb.WriteString(op.Name)
	renderSyn(&sb, op.Syntax, e.dop.Args, e.syms, true)
	return sb.String()
}

func renderSyn(sb *strings.Builder, syn []isdl.SynElem, args []decode.Arg, syms map[int]string, leading bool) {
	first := leading
	for _, el := range syn {
		switch {
		case el.Lit == ",":
			sb.WriteString(", ")
			first = false
		case el.Lit != "":
			if first {
				sb.WriteByte(' ')
				first = false
			}
			sb.WriteString(el.Lit)
		default:
			if first {
				sb.WriteByte(' ')
				first = false
			}
			if sym, ok := syms[el.Param]; ok {
				sb.WriteString(sym)
				continue
			}
			renderSchedArg(sb, &args[el.Param])
		}
	}
}

func renderSchedArg(sb *strings.Builder, a *decode.Arg) {
	if a.Param.Token != nil {
		if name, ok := a.Param.Token.NameFor(a.Value); ok {
			sb.WriteString(name)
		} else {
			sb.WriteString(a.Value.String())
		}
		return
	}
	renderSyn(sb, a.Option.Syntax, a.Sub, nil, false)
}
