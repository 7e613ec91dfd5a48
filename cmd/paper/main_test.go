package main

import (
	"strings"
	"testing"
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
