package main

import (
	"strings"
	"testing"
	"time"
)

func TestCheckChoice(t *testing.T) {
	for _, tc := range []struct {
		name, val string
		choices   []string
		wantErr   bool
	}{
		{"table", "1", tableChoices, false},
		{"table", "2", tableChoices, false},
		{"table", "all", tableChoices, false},
		{"table", "none", tableChoices, false},
		{"table", "3", tableChoices, true},
		{"table", "", tableChoices, true},
		{"table", "ALL", tableChoices, true},
		{"ablation", "sharing", ablationChoices, false},
		{"ablation", "decode", ablationChoices, false},
		{"ablation", "stalls", ablationChoices, false},
		{"ablation", "all", ablationChoices, false},
		{"ablation", "none", ablationChoices, false},
		{"ablation", "bogus", ablationChoices, true},
		{"ablation", "1", ablationChoices, true},
	} {
		err := checkChoice(tc.name, tc.val, tc.choices)
		if (err != nil) != tc.wantErr {
			t.Errorf("checkChoice(%q, %q) = %v, want error %v", tc.name, tc.val, err, tc.wantErr)
			continue
		}
		if err != nil && !strings.Contains(err.Error(), "-"+tc.name) {
			t.Errorf("error %q does not name the -%s flag", err, tc.name)
		}
	}
}

// TestCheckAtLeast pins the numeric flags paper rejects instead of
// reinterpreting: want is the exact error, or empty for an accepted value.
func TestCheckAtLeast(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{checkAtLeast("gauntlet-n", 1, 1), ""},
		{checkAtLeast("gauntlet-n", 25, 1), ""},
		{checkAtLeast("gauntlet-n", 0, 1), "-gauntlet-n 0: want at least 1"},
		{checkAtLeast("gauntlet-n", -4, 1), "-gauntlet-n -4: want at least 1"},
		{checkAtLeast("cosim-workers", 0, 0), ""},
		{checkAtLeast("cosim-workers", 8, 0), ""},
		{checkAtLeast("cosim-workers", -1, 0), "-cosim-workers -1: want at least 0"},
		{checkAtLeast("budget", 0, 0), ""},
		{checkAtLeast("budget", 500*time.Millisecond, 0), ""},
		{checkAtLeast("budget", -time.Second, 0), "-budget -1s: want at least 0s"},
	} {
		got := ""
		if tc.err != nil {
			got = tc.err.Error()
		}
		if got != tc.want {
			t.Errorf("error %q, want %q", got, tc.want)
		}
	}
}

// TestCheckFlags pins which flag combinations paper runs and which it
// rejects before any work. want is the exact error, or empty for an
// accepted command line.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		set             string // names of the flags given, space-separated
		suite, gauntlet bool
		want            string
	}{
		{"", false, false, ""},
		{"table ablation budget cosim-workers", false, false, ""},
		{"suite", true, false, ""},
		{"suite suite-filter suite-json suite-backend", true, false, ""},
		{"gauntlet gauntlet-n seed gauntlet-json", false, true, ""},
		{"gauntlet gauntlet-n seed-replay gauntlet-no-cosim", false, true, ""},
		{"suite gauntlet", false, false, ""}, // both given as =false

		{"suite gauntlet", true, true, "-suite and -gauntlet are separate runs; give one"},
		{"suite seed budget table suite-filter", true, false, "a -suite run does not use -seed -table -budget"},
		{"suite gauntlet-n", true, false, "a -suite run does not use -gauntlet-n"},
		{"suite cosim-workers ablation", true, false, "a -suite run does not use -ablation -cosim-workers"},
		{"gauntlet suite-json", false, true, "a -gauntlet run does not use -suite-json"},
		{"gauntlet seed table", false, true, "a -gauntlet run does not use -table"},
		{"gauntlet budget", false, true, "a -gauntlet run does not use -budget"},
		{"table seed", false, false, "a table run does not use -seed"},
		{"seed-replay", false, false, "a table run does not use -seed-replay"},
		{"budget gauntlet-n gauntlet-no-cosim", false, false, "a table run does not use -gauntlet-n -gauntlet-no-cosim"},
		{"suite-filter suite-backend", false, false, "a table run does not use -suite-filter -suite-backend"},
	} {
		set := map[string]bool{}
		for _, name := range strings.Fields(tc.set) {
			set[name] = true
		}
		got := ""
		if err := checkFlags(set, tc.suite, tc.gauntlet); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("checkFlags(%q, suite %v, gauntlet %v) = %q, want %q", tc.set, tc.suite, tc.gauntlet, got, tc.want)
		}
	}
}
