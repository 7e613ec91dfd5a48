package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/explore"
)

// runFlags are the flag values checkFlags judges.
type runFlags struct {
	strategy                                    string
	iters, beam, frontierCap, restarts, workers int
	weights                                     explore.Weights
	constraints                                 explore.Constraints
}

// remoteFlags are the flags the -remote path reads.
var remoteFlags = map[string]bool{"m": true, "k": true, "remote": true,
	"trace-out": true, "metrics-out": true, "no-summary": true, "dash": true}

// paretoFlags only act under -strategy pareto.
var paretoFlags = []string{"frontier-cap", "frontier-out", "max-area", "max-power", "max-runtime"}

// checkFlags rejects every flag value or combination that a run would
// otherwise reinterpret or ignore: counts out of range, strategy-specific
// flags without their strategy, flags the -remote path does not read, a
// meaningless objective (NaN, negative or all-zero weights would score
// every candidate into an accept test that never fires) and invalid
// constraints. set names the flags given on the command line.
func checkFlags(set map[string]bool, f runFlags) error {
	if set["remote"] {
		var unused []string
		for name := range set {
			if !remoteFlags[name] {
				unused = append(unused, "-"+name)
			}
		}
		if len(unused) > 0 {
			sort.Strings(unused)
			return fmt.Errorf("-remote evaluates the base machine once; it does not use %s", strings.Join(unused, " "))
		}
		return nil
	}
	switch f.strategy {
	case "hill", "beam", "pareto":
	default:
		return fmt.Errorf("unknown -strategy %q (want hill, beam or pareto)", f.strategy)
	}
	for _, c := range []struct {
		name     string
		v, least int
	}{
		{"iters", f.iters, 1}, {"beam", f.beam, 1},
		{"frontier-cap", f.frontierCap, 0}, {"restarts", f.restarts, 0}, {"workers", f.workers, 0},
	} {
		if c.v < c.least {
			return fmt.Errorf("-%s %d: want at least %d", c.name, c.v, c.least)
		}
	}
	if set["beam"] && f.strategy != "beam" {
		return fmt.Errorf("-beam requires -strategy beam")
	}
	for _, name := range paretoFlags {
		if set[name] && f.strategy != "pareto" {
			return fmt.Errorf("-%s requires -strategy pareto", name)
		}
	}
	if set["seed"] && f.restarts == 0 {
		return fmt.Errorf("-seed requires -restarts")
	}
	if err := f.weights.Validate(); err != nil {
		return err
	}
	return f.constraints.Validate()
}
