package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"repro/internal/machines"
	"repro/internal/suite"
	"repro/internal/xsim"
)

// This file is the experiments layer's view of the suite registry (ROADMAP
// item 4): RunSuite runs every registered workload passing a filter on
// every machine in the zoo, reference-checks each run, and returns a typed
// report that cmd/paper renders (-suite) or serializes (-suite-json). The
// table and ablation runners resolve their machines and workloads through
// the same zoo and registry.

// SuiteOptions configures a suite run.
type SuiteOptions struct {
	// Backend selects the xsim backend (empty: interp).
	Backend xsim.Backend
}

// SuiteRow is one (workload, machine) cell of the suite report.
type SuiteRow struct {
	Workload string   `json:"workload"`
	Machine  string   `json:"machine"`
	Tags     []string `json:"tags,omitempty"`

	// Supported is false when the toolchain cannot target the pair (Note
	// says why); such rows carry no measurements.
	Supported bool   `json:"supported"`
	Note      string `json:"note,omitempty"`
	// Verified reports the reference-output check (always true for rows a
	// successful RunSuite returns — a failed check aborts the run).
	Verified bool `json:"verified"`

	Backend      string  `json:"backend,omitempty"`
	Cycles       uint64  `json:"cycles,omitempty"`
	Instructions uint64  `json:"instructions,omitempty"`
	DataStalls   uint64  `json:"data_stalls,omitempty"`
	StructStalls uint64  `json:"struct_stalls,omitempty"`
	MIPS         float64 `json:"mips,omitempty"`
}

// SuiteReport is the full suite run.
type SuiteReport struct {
	Backend     string     `json:"backend"`
	Machines    []string   `json:"machines"`
	Workloads   []string   `json:"workloads"`
	Rows        []SuiteRow `json:"rows"`
	Verified    int        `json:"verified"`
	Unsupported int        `json:"unsupported"`
}

// RunSuite runs the registered workloads passing the filter on each machine
// and reference-checks every run. Workload/machine pairs the toolchain
// cannot target become unsupported rows; any real failure — a fault, a
// timeout, a reference mismatch — aborts with an error, because a suite
// that silently drops failing measurements is worse than none.
func RunSuite(f suite.Filter, o SuiteOptions) (*SuiteReport, error) {
	ms := machines.ZooNames()
	ws := suite.All(f)
	backend, err := xsim.ParseBackend(string(o.Backend))
	if err != nil {
		return nil, err
	}
	rep := &SuiteReport{Backend: string(backend), Machines: ms, Workloads: suite.Names(f)}
	for _, w := range ws {
		for _, m := range ms {
			if w.Machine != "" && w.Machine != m {
				continue // asm workload pinned elsewhere
			}
			res, err := suite.Run(w, m, suite.Options{Backend: backend})
			if err != nil {
				var u *suite.Unsupported
				if errors.As(err, &u) {
					rep.Rows = append(rep.Rows, SuiteRow{
						Workload: w.Name, Machine: m, Tags: w.Tags,
						Note: unwrapNote(u),
					})
					rep.Unsupported++
					continue
				}
				return nil, err
			}
			rep.Rows = append(rep.Rows, SuiteRow{
				Workload: w.Name, Machine: m, Tags: w.Tags,
				Supported: true, Verified: true,
				Backend:      string(res.BackendUsed),
				Cycles:       res.Cycles,
				Instructions: res.Instructions,
				DataStalls:   res.DataStalls,
				StructStalls: res.StructStalls,
				MIPS:         res.MIPS,
			})
			rep.Verified++
		}
	}
	return rep, nil
}

func unwrapNote(u *suite.Unsupported) string {
	note := u.Err.Error()
	return strings.TrimPrefix(note, "compiler: ")
}

// Render formats the suite report as the evaluation table.
func (r *SuiteReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Benchmark suite: %d workloads × %d machines (backend %s)\n\n",
		len(r.Workloads), len(r.Machines), r.Backend)
	fmt.Fprintf(&sb, "  %-14s %-8s %10s %10s %10s %10s %9s  %s\n",
		"workload", "machine", "cycles", "instrs", "data-st", "struct-st", "MIPS", "ref")
	for _, row := range r.Rows {
		if !row.Supported {
			fmt.Fprintf(&sb, "  %-14s %-8s %s\n", row.Workload, row.Machine,
				"unsupported: "+row.Note)
			continue
		}
		fmt.Fprintf(&sb, "  %-14s %-8s %10d %10d %10d %10d %9.1f  %s\n",
			row.Workload, row.Machine, row.Cycles, row.Instructions,
			row.DataStalls, row.StructStalls, row.MIPS, "ok")
	}
	fmt.Fprintf(&sb, "\n  %d runs verified against reference outputs, %d unsupported pairs\n",
		r.Verified, r.Unsupported)
	return sb.String()
}

// JSON serializes the report (stable field order, trailing newline).
func (r *SuiteReport) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
