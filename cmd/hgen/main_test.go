package main

import (
	"testing"

	"repro/internal/hgen"
)

// TestOptions pins the -sharing and -decode values hgen accepts and the
// options each selects; want is the exact error for a rejected value.
func TestOptions(t *testing.T) {
	for _, tc := range []struct {
		sharing, decode string
		want            hgen.Options
		err             string
	}{
		{"full", "twolevel", hgen.DefaultOptions(), ""},
		{"off", "twolevel", hgen.Options{Sharing: hgen.ShareOff, Decode: hgen.DecodeTwoLevel, EmitVerilog: true}, ""},
		{"rules", "twolevel", hgen.Options{Sharing: hgen.ShareRules, Decode: hgen.DecodeTwoLevel, EmitVerilog: true}, ""},
		{"full", "comparator", hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: hgen.DecodeComparator, EmitVerilog: true}, ""},
		{"off", "comparator", hgen.Options{Sharing: hgen.ShareOff, Decode: hgen.DecodeComparator, EmitVerilog: true}, ""},
		{"bogus", "twolevel", hgen.Options{}, `unknown -sharing "bogus" (want off | rules | full)`},
		{"", "twolevel", hgen.Options{}, `unknown -sharing "" (want off | rules | full)`},
		{"Full", "twolevel", hgen.Options{}, `unknown -sharing "Full" (want off | rules | full)`},
		{"full", "naive", hgen.Options{}, `unknown -decode "naive" (want twolevel | comparator)`},
		{"full", "", hgen.Options{}, `unknown -decode "" (want twolevel | comparator)`},
	} {
		got, err := options(tc.sharing, tc.decode)
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if msg != tc.err || got != tc.want {
			t.Errorf("options(%q, %q) = %+v, %q; want %+v, %q", tc.sharing, tc.decode, got, msg, tc.want, tc.err)
		}
	}
}
