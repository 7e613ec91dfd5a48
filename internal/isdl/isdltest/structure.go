// Package isdltest holds test helpers for the packages that parse, derive
// or format ISDL descriptions.
package isdltest

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/isdl"
)

// Structure renders what a description means, without source positions
// and without going through isdl.Format: its syntax, and what the semantic
// pass made of it (signatures, non-terminal value widths and lvalue
// flags). Two descriptions of one machine, however built, render the same.
func Structure(d *isdl.Description) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %q format %d\n", d.Name, d.WordWidth)
	names := make([]string, 0, len(d.Tokens))
	for n := range d.Tokens {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		tok := *d.Tokens[n]
		tok.Pos = isdl.Pos{}
		fmt.Fprintf(&sb, "token %+v\n", tok)
	}
	for _, st := range d.Storage {
		s := *st
		s.Pos = isdl.Pos{}
		fmt.Fprintf(&sb, "storage %+v\n", s)
	}
	for _, a := range d.Aliases {
		al := *a
		al.Pos, al.Storage = isdl.Pos{}, nil // Target names the storage
		fmt.Fprintf(&sb, "alias %+v\n", al)
	}
	names = names[:0]
	for n := range d.NonTerminals {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		nt := d.NonTerminals[n]
		fmt.Fprintf(&sb, "nonterminal %s width %d value %d lvalue %v\n", nt.Name, nt.RetWidth, nt.ValueWidth, nt.Lvalue)
		for _, o := range nt.Options {
			fmt.Fprintf(&sb, "  option %d%s sig %s value %s effect %v cost %+v timing %+v\n",
				o.Index, syntax(o.Syntax, o.Params), o.Sig.String(), o.Value, o.SideEffect, o.Costs, o.Timing)
		}
	}
	for _, f := range d.Fields {
		fmt.Fprintf(&sb, "field %s\n", f.Name)
		for _, op := range f.Ops {
			fmt.Fprintf(&sb, "  op %s%s sig %s action %v effect %v cost %+v timing %+v\n",
				op.Name, syntax(op.Syntax, op.Params), op.Sig.String(), op.Action, op.SideEffect, op.Costs, op.Timing)
		}
	}
	for _, c := range d.Constraints {
		fmt.Fprintf(&sb, "constraint %s\n", c.Text)
	}
	names = names[:0]
	for k := range d.Info {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Fprintf(&sb, "info %q = %q\n", k, d.Info[k])
	}
	return sb.String()
}

func syntax(syn []isdl.SynElem, params []*isdl.Param) string {
	var sb strings.Builder
	for _, el := range syn {
		if el.Lit != "" {
			fmt.Fprintf(&sb, " %q", el.Lit)
			continue
		}
		p := params[el.Param]
		fmt.Fprintf(&sb, " (%s: %s)", p.Name, p.TypeName)
	}
	return sb.String()
}
