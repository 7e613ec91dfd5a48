package machines_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machines"
)

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	custom := filepath.Join(dir, "custom.isdl")
	if err := os.WriteFile(custom, []byte(machines.ToySource), 0o644); err != nil {
		t.Fatal(err)
	}
	// A file named like a zoo machine must not shadow the builtin.
	if err := os.WriteFile(filepath.Join(dir, "spam"), []byte("not isdl"), 0o644); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })

	for _, tc := range []struct {
		arg, want string
	}{
		{"riscv5", machines.RISCV5Source},
		{"spam", machines.SPAMSource},
		{custom, machines.ToySource},
	} {
		got, err := machines.Resolve(tc.arg)
		if err != nil {
			t.Errorf("Resolve(%q): %v", tc.arg, err)
			continue
		}
		if got != tc.want {
			t.Errorf("Resolve(%q) returned the wrong source", tc.arg)
		}
	}

	_, err = machines.Resolve("no-such-machine")
	if err == nil {
		t.Fatal("Resolve of a missing name succeeded")
	}
	for _, name := range machines.ZooNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list zoo machine %q", err, name)
		}
	}
}
