package machines

import (
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/isdl"
)

// The machine zoo: every bundled ISDL description under a stable name, in a
// deterministic order. The suite registry, the repro facade and the CLIs all
// enumerate machines through this table, so adding a description here is the
// single step that makes it visible everywhere.

// ZooEntry is one bundled machine.
type ZooEntry struct {
	// Name is the stable lookup key ("toy", "spam", ...).
	Name string
	// Source is the ISDL text.
	Source string
	// Parse builds the parsed description (panics on error; the sources
	// are compiled-in constants covered by tests).
	Parse func() *isdl.Description
}

// Zoo returns the bundled machines in their canonical order.
func Zoo() []ZooEntry {
	return []ZooEntry{
		{Name: "toy", Source: ToySource, Parse: Toy},
		{Name: "risc32", Source: RISC32Source, Parse: RISC32},
		{Name: "riscv5", Source: RISCV5Source, Parse: RISCV5},
		{Name: "spam", Source: SPAMSource, Parse: SPAM},
		{Name: "spam2", Source: SPAM2Source, Parse: SPAM2},
	}
}

// ZooNames returns the zoo's machine names in canonical order.
func ZooNames() []string {
	zoo := Zoo()
	names := make([]string, len(zoo))
	for i, e := range zoo {
		names[i] = e.Name
	}
	return names
}

// ByName parses the named zoo machine.
func ByName(name string) (*isdl.Description, error) {
	for _, e := range Zoo() {
		if e.Name == name {
			return e.Parse(), nil
		}
	}
	known := ZooNames()
	sort.Strings(known)
	return nil, fmt.Errorf("machines: unknown machine %q (have %v)", name, known)
}

// Resolve returns the ISDL source a command-line machine argument names: a
// zoo machine by name, else the contents of the file at that path. A zoo
// name wins over a file of the same name. An argument that is neither is an
// error listing the zoo names.
func Resolve(arg string) (string, error) {
	for _, e := range Zoo() {
		if e.Name == arg {
			return e.Source, nil
		}
	}
	b, err := os.ReadFile(arg)
	if err != nil {
		return "", fmt.Errorf("machines: %q is neither a zoo machine (%s) nor a readable file: %w",
			arg, strings.Join(ZooNames(), ", "), err)
	}
	return string(b), nil
}
