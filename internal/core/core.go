// Package core implements the paper's primary contribution: accurate
// performance evaluation for architecture exploration. For one candidate
// architecture (an ISDL description) and one application workload it
// combines the two automatically generated models —
//
//   - the cycle count, stalls and utilization statistics measured by the
//     GENSIM instruction-level simulator (internal/xsim), and
//   - the cycle length, die size and power obtained from the HGEN hardware
//     implementation model (internal/hgen + internal/tech)
//
// into the figures the exploration loop of Figure 1 ranks candidates by:
// run time = cycles × cycle length, silicon cost, and power consumption.
package core

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/isdl"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// Evaluation is the complete figure of merit for one (architecture,
// workload) pair. It is plain data: it keeps the figures, never the
// simulator or hardware model that produced them, so it can be cached,
// stored and served as it is.
type Evaluation struct {
	Machine  string
	Workload string

	// From the instruction-level simulator.
	Cycles       uint64
	Instructions uint64
	Stats        xsim.Stats

	// From the hardware model.
	CycleNs   float64
	AreaCells float64

	// Combined figures.
	RuntimeUs float64 // cycles × cycle length
	PowerMW   float64 // activity-scaled dynamic + leakage
	// EnergyUJ is the energy of the whole run.
	EnergyUJ float64
}

// Score folds the evaluation into a single scalar for hill climbing: run
// time weighted against area and power. Lower is better.
func (e *Evaluation) Score(runtimeWeight, areaWeight, powerWeight float64) float64 {
	return runtimeWeight*e.RuntimeUs + areaWeight*e.AreaCells/1e4 + powerWeight*e.PowerMW
}

// Summary renders the evaluation report.
func (e *Evaluation) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "machine %s running %s\n", e.Machine, e.Workload)
	fmt.Fprintf(&sb, "  cycles:       %d (%d instructions, %d data + %d structural stalls)\n",
		e.Cycles, e.Instructions, e.Stats.DataStalls, e.Stats.StructStalls)
	fmt.Fprintf(&sb, "  cycle length: %.1f ns\n", e.CycleNs)
	fmt.Fprintf(&sb, "  run time:     %.2f us\n", e.RuntimeUs)
	fmt.Fprintf(&sb, "  die size:     %.0f grid cells\n", e.AreaCells)
	fmt.Fprintf(&sb, "  power:        %.1f mW (%.2f uJ for the run)\n", e.PowerMW, e.EnergyUJ)
	return sb.String()
}

// The one evaluation configuration, so every stage-cache key is a function
// of its inputs alone: candidates run on the interpreter for at most
// maxInstructions (a backstop against non-halting candidates) and are
// synthesized into the LSI 10K library under the paper's options. lib is
// only read.
var lib = tech.LSI10K()

const maxInstructions = 100_000_000

// Evaluate runs the full methodology for one candidate and workload: the
// program on the interpreter, the description through HGEN under the
// paper's synthesis options and technology library.
func Evaluate(d *isdl.Description, prog *asm.Program, workload string) (*Evaluation, error) {
	stats, err := runSimulation(d, prog, maxInstructions, workload, nil)
	if err != nil {
		return nil, err
	}
	synth, err := synthesize(d, nil)
	if err != nil {
		return nil, err
	}
	return combineArtifacts(d.Name, workload, stats, synth), nil
}

// combineArtifacts folds a finished simulation's statistics and the
// synthesis figures into the evaluation figures: pure arithmetic, so it
// works for synthesis figures served from a blob store just as for live
// runs.
func combineArtifacts(machine, workload string, stats xsim.Stats, ha SynthArtifact) *Evaluation {
	e := &Evaluation{
		Machine:      machine,
		Workload:     workload,
		Cycles:       stats.Cycles,
		Instructions: stats.Instructions,
		Stats:        stats,
		CycleNs:      ha.CycleNs,
		AreaCells:    ha.AreaCells,
	}
	e.RuntimeUs = float64(e.Cycles) * e.CycleNs / 1e3

	// Power: the per-instruction switched energy assumes every field
	// active; scale it by the measured utilization, charge idle cycles
	// (stalls) at a fraction of that, and add area leakage.
	activity := 0.0
	for _, u := range stats.Utilization() {
		activity += u
	}
	if n := len(stats.FieldIssue); n > 0 {
		activity /= float64(n)
	}
	busy := float64(e.Instructions)
	idle := float64(e.Cycles) - busy
	if idle < 0 {
		idle = 0
	}
	var switchedPJ float64
	if e.Cycles > 0 {
		switchedPJ = ha.EnergyPerInstrPJ * (busy*activity + idle*0.1)
	}
	dynamicMW := 0.0
	if e.Cycles > 0 {
		dynamicMW = lib.DynamicMW(switchedPJ/float64(e.Cycles), e.CycleNs)
	}
	e.PowerMW = dynamicMW + lib.LeakageMW(e.AreaCells)
	e.EnergyUJ = e.PowerMW * e.RuntimeUs / 1e3
	return e
}
