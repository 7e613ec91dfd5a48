// Package experiments regenerates the paper's evaluation (§6): Table 1
// (simulation speed of the generated ILS vs. the synthesizable Verilog
// model) and Table 2 (hardware synthesis statistics for SPAM and SPAM2),
// plus the ablations DESIGN.md defines for the design choices of §3–4.
// cmd/paper prints the tables.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// table1Workload resolves the Table 1 program through the suite registry:
// the 16-tap, 48-output FIR on SPAM ("fir16.spam"), the realistic
// simulation run §6.2 argues the fast ILS enables.
func table1Workload() (*isdl.Description, *asm.Program, error) {
	w, err := suite.Get("fir16.spam")
	if err != nil {
		return nil, nil, err
	}
	d, err := machines.ByName(w.Machine)
	if err != nil {
		return nil, nil, err
	}
	p, _, _, err := suite.Prepare(w, d)
	if err != nil {
		return nil, nil, err
	}
	return d, p, nil
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Model        string
	CyclesPerSec float64
	Cycles       uint64
	Elapsed      time.Duration
}

// Table1 measures both simulators on the SPAM FIR workload. The budget
// bounds each measurement (the ILS re-runs the workload until the budget is
// spent; the event-driven model runs whole workloads — concurrently, on the
// co-simulation pool — until it is).
type Table1 struct {
	ILS Table1Row
	// Verilog is the event-driven hardware-model row. Its timed window is
	// the Tick loop only (summed per run): elaboration and program/data
	// loading are reported in VerilogSetup, never in the denominator.
	Verilog Table1Row
	// Events accumulates the event count over every Verilog run, so it
	// pairs with the cumulative Verilog.Cycles.
	Events uint64
	// VerilogRuns is how many whole workloads the Verilog model completed.
	VerilogRuns int
	// VerilogSetup is the summed elaboration + memory-load time, excluded
	// from the timed window above.
	VerilogSetup time.Duration
	// VerilogWall is the wall clock of the whole (parallel) Verilog
	// measurement.
	VerilogWall time.Duration
	// VerilogAggregate is the pool throughput in cycles/sec: cumulative
	// cycles over wall clock, which credits the parallel fan-out.
	VerilogAggregate float64
	// CosimWorkers is the worker count the Verilog measurement used.
	CosimWorkers int
	// CosimSpeedup is the measured parallel-vs-serial speedup of the
	// co-simulation pool: summed per-instance simulation time over wall
	// clock (≈1 when serial, → CosimWorkers when the fan-out scales).
	CosimSpeedup float64
}

// ratio divides num by den, reporting 0 instead of ±Inf/NaN on a
// degenerate (zero-denominator) measurement. Every speed/speedup quotient
// in this file routes through it.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Speedup returns the ILS speed over the Verilog-model speed.
func (t *Table1) Speedup() float64 {
	return ratio(t.ILS.CyclesPerSec, t.Verilog.CyclesPerSec)
}

// Table1Options configures RunTable1Opts.
type Table1Options struct {
	// Budget bounds each simulator's measurement.
	Budget time.Duration
	// Workers is the Verilog co-simulation fan-out (<= 0: NumCPU).
	Workers int
	// MinVerilogRuns is a cycle floor: at least this many whole Verilog
	// workloads run regardless of Budget (default 1), so short budgets
	// still measure complete runs.
	MinVerilogRuns int
	// Obs, when non-nil, receives the co-simulation pool's metrics and
	// spans (cosim.* counters and per-worker lanes).
	Obs *obs.Registry
}

// RunTable1Opts performs the Table 1 measurement.
func RunTable1Opts(o Table1Options) (*Table1, error) {
	d, p, err := table1Workload()
	if err != nil {
		return nil, err
	}

	// Instruction-level simulator speed.
	sim := xsim.New(d)
	var cycles uint64
	start := time.Now()
	for cycles == 0 || time.Since(start) < o.Budget {
		if err := sim.Load(p); err != nil {
			return nil, err
		}
		if err := sim.Run(0); err != nil {
			return nil, err
		}
		cycles += sim.Cycle()
	}
	elapsed := time.Since(start)
	ils := Table1Row{Model: "XSIM (ILS) Simulator", CyclesPerSec: ratio(float64(cycles), elapsed.Seconds()), Cycles: cycles, Elapsed: elapsed}

	// Synthesizable-Verilog model under the event-driven simulator, fanned
	// out on the co-simulation pool.
	synth, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	if err != nil {
		return nil, err
	}
	stats, err := measureVerilog(synth.Module, p, o, nil)
	if err != nil {
		return nil, err
	}

	return &Table1{
		ILS: ils,
		Verilog: Table1Row{
			Model:        "Synthesizable Verilog",
			CyclesPerSec: stats.SimCyclesPerSec(),
			Cycles:       stats.Cycles,
			Elapsed:      stats.Sim,
		},
		Events:           stats.Events,
		VerilogRuns:      stats.Jobs,
		VerilogSetup:     stats.Setup,
		VerilogWall:      stats.Wall,
		VerilogAggregate: stats.AggregateCyclesPerSec(),
		CosimWorkers:     stats.Workers,
		CosimSpeedup:     stats.Speedup(),
	}, nil
}

// measureVerilog runs whole FIR workloads on the event-driven model across
// the co-simulation pool until the budget is spent (and at least
// MinVerilogRuns workloads either way). Only the Tick loops are timed as
// simulation; elaboration and program loading accumulate separately as
// setup (the satellite fix for the deflated Verilog cycles/sec). The now
// parameter injects a test clock; nil means time.Now.
func measureVerilog(mod *verilog.Module, p *asm.Program, o Table1Options, now func() time.Time) (cosim.Stats, error) {
	if now == nil {
		now = time.Now
	}
	minRuns := o.MinVerilogRuns
	if minRuns <= 0 {
		minRuns = 1
	}
	pool := &cosim.Pool{Workers: o.Workers, Obs: o.Obs, Now: now}
	start := now()
	// Budget guard for very slow hosts: give up mid-workload past 4× the
	// budget. Disabled for untimed (budget 0) runs, which are bounded by
	// the run floor instead — those must complete exactly minRuns whole
	// workloads so their cycle/event totals are deterministic.
	var stop func() bool
	if o.Budget > 0 {
		stop = func() bool { return now().Sub(start) > 4*o.Budget }
	}
	wl := cosim.Workload{Mod: mod, Init: func(hw *verilog.Sim) error { return cosim.LoadProgram(hw, p) }, Stop: stop}

	var total cosim.Stats
	for {
		batch := pool.NumWorkers()
		if o.Budget == 0 && total.Jobs+batch > minRuns {
			batch = minRuns - total.Jobs
		}
		st, err := pool.Run("table1.verilog", batch, func(i int, l *cosim.Lane) error {
			_, err := wl.Run(l)
			return err
		})
		total = total.Add(st)
		if err != nil {
			return total, err
		}
		if total.Jobs >= minRuns {
			if o.Budget == 0 || now().Sub(start) >= o.Budget || (stop != nil && stop()) {
				break
			}
		}
	}
	return total, nil
}

// Render prints Table 1 in the paper's layout.
func (t *Table1) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1: Simulation Speeds for XSIM vs Hardware Model\n")
	sb.WriteString("(SPAM running the 16-tap FIR workload)\n\n")
	fmt.Fprintf(&sb, "  %-24s %18s %10s\n", "Model", "Speed (cycles/sec)", "Speedup")
	fmt.Fprintf(&sb, "  %-24s %18.0f %9.0fx\n", t.ILS.Model, t.ILS.CyclesPerSec, t.Speedup())
	fmt.Fprintf(&sb, "  %-24s %18.0f %10s\n", t.Verilog.Model, t.Verilog.CyclesPerSec, "1")
	fmt.Fprintf(&sb, "\n  (event-driven model: %d runs evaluated %d events over %d cycles;\n",
		t.VerilogRuns, t.Events, t.Verilog.Cycles)
	fmt.Fprintf(&sb, "   elaboration+load %s excluded from the %s timed window)\n",
		t.VerilogSetup.Round(time.Millisecond), t.Verilog.Elapsed.Round(time.Millisecond))
	fmt.Fprintf(&sb, "  (co-simulation pool: %d workers, aggregate %.0f cycles/sec, measured speedup %.2fx)\n",
		t.CosimWorkers, t.VerilogAggregate, t.CosimSpeedup)
	return sb.String()
}

// Table2Row is one row of Table 2.
type Table2Row struct {
	Processor    string
	CycleNs      float64
	VerilogLines int
	DieSizeCells float64
	SynthSec     float64
	// CoexistExhausted is hgen.Result.CoexistExhausted: pairs whose
	// constraint search ran out of budget and were left unshared.
	CoexistExhausted int
}

// RunTable2 synthesizes both processors with the paper's configuration.
func RunTable2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, d := range zooPair() {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table2Row{
			Processor:        strings.ToUpper(d.Name),
			CycleNs:          r.CycleNs,
			VerilogLines:     r.VerilogLines,
			DieSizeCells:     r.AreaCells,
			SynthSec:         r.SynthSeconds,
			CoexistExhausted: r.CoexistExhausted,
		})
	}
	return rows, nil
}

// RenderTable2 prints Table 2 in the paper's layout.
func RenderTable2(rows []Table2Row) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Hardware Synthesis Statistics\n\n")
	fmt.Fprintf(&sb, "  %-10s %12s %18s %22s %20s\n",
		"Processor", "Cycle (nsec)", "Lines of Verilog", "Die Size (grid cells)", "Synthesis time (sec)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %12.1f %18d %22.0f %20.3f\n",
			r.Processor, r.CycleNs, r.VerilogLines, r.DieSizeCells, r.SynthSec)
	}
	for _, r := range rows {
		writeExhausted(&sb, r.Processor, r.CoexistExhausted)
	}
	return sb.String()
}

// writeExhausted warns that a row's die size is conservative: n operation
// pairs exhausted HGEN's constraint-search budget and were assumed to
// coexist.
func writeExhausted(sb *strings.Builder, row string, n int) {
	if n > 0 {
		fmt.Fprintf(sb, "  warning: %s: %d operation pairs exhausted the sharing search budget; die size is an upper bound\n", row, n)
	}
}

// SharingRow is one ablation-A measurement.
type SharingRow struct {
	Processor string
	Mode      hgen.SharingMode
	DieSize   float64
	Datapath  float64 // units + operand muxes (where sharing acts)
	Units     int
	Nodes     int
	// CoexistExhausted is hgen.Result.CoexistExhausted.
	CoexistExhausted int
}

// zooPair resolves the paper's two DSPs through the machine zoo.
func zooPair() []*isdl.Description {
	var ds []*isdl.Description
	for _, name := range []string{"spam", "spam2"} {
		d, err := machines.ByName(name)
		if err != nil {
			panic("experiments: zoo lost " + name + ": " + err.Error())
		}
		ds = append(ds, d)
	}
	return ds
}

// RunAblationSharing measures die size under the three sharing modes
// (§4.1.1–4.1.2).
func RunAblationSharing() ([]SharingRow, error) {
	var rows []SharingRow
	for _, d := range zooPair() {
		for _, mode := range []hgen.SharingMode{hgen.ShareOff, hgen.ShareRules, hgen.ShareRulesAndConstraints} {
			r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: mode, Decode: hgen.DecodeTwoLevel})
			if err != nil {
				return nil, err
			}
			rows = append(rows, SharingRow{
				Processor: strings.ToUpper(d.Name), Mode: mode,
				DieSize:  r.AreaCells,
				Datapath: r.Breakdown["datapath"] + r.Breakdown["operand muxes"],
				Units:    len(r.Units), Nodes: len(r.Nodes),
				CoexistExhausted: r.CoexistExhausted,
			})
		}
	}
	return rows, nil
}

// RenderSharing prints ablation A.
func RenderSharing(rows []SharingRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation A: Resource sharing (Figure 5) — die size by sharing mode\n\n")
	fmt.Fprintf(&sb, "  %-10s %-20s %12s %16s %8s %8s\n", "Processor", "Sharing", "Die (cells)", "Datapath (cells)", "Units", "Nodes")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %-20s %12.0f %16.0f %8d %8d\n", r.Processor, r.Mode.String(), r.DieSize, r.Datapath, r.Units, r.Nodes)
	}
	for _, r := range rows {
		writeExhausted(&sb, r.Processor+" "+r.Mode.String(), r.CoexistExhausted)
	}
	return sb.String()
}

// DecodeRow is one ablation-B measurement.
type DecodeRow struct {
	Processor  string
	Style      hgen.DecodeStyle
	DecodeArea float64
	CycleNs    float64
}

// RunAblationDecode measures the decode-logic styles of §4.2.
func RunAblationDecode() ([]DecodeRow, error) {
	var rows []DecodeRow
	for _, d := range zooPair() {
		for _, style := range []hgen.DecodeStyle{hgen.DecodeTwoLevel, hgen.DecodeComparator} {
			r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: style})
			if err != nil {
				return nil, err
			}
			rows = append(rows, DecodeRow{
				Processor: strings.ToUpper(d.Name), Style: style,
				DecodeArea: r.Breakdown["decode"], CycleNs: r.CycleNs,
			})
		}
	}
	return rows, nil
}

// RenderDecode prints ablation B.
func RenderDecode(rows []DecodeRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation B: Decode logic (§4.2) — signature product terms vs naive comparators\n\n")
	fmt.Fprintf(&sb, "  %-10s %-12s %18s %14s\n", "Processor", "Style", "Decode area (cells)", "Cycle (nsec)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %-12s %18.0f %14.1f\n", r.Processor, r.Style.String(), r.DecodeArea, r.CycleNs)
	}
	return sb.String()
}

// StallRow is one ablation-C measurement.
type StallRow struct {
	Workload   string
	Model      string
	Cycles     uint64
	DataStalls uint64
	Correct    bool
}

// RunAblationStalls compares the §3.3.3 stall model against back-to-back
// issue on the SPAM dot-product (whose loads and multiplies have non-unit
// latency). The interlock model both counts stalls and keeps results
// correct; disabling it shows what interlock-free hardware would compute.
// The workload resolves through the suite registry ("dot32.spam").
func RunAblationStalls() ([]StallRow, error) {
	w, err := suite.Get("dot32.spam")
	if err != nil {
		return nil, err
	}
	d, err := machines.ByName(w.Machine)
	if err != nil {
		return nil, err
	}
	p, out, ref, err := suite.Prepare(w, d)
	if err != nil {
		return nil, err
	}

	var rows []StallRow
	for _, stall := range []bool{true, false} {
		sim := xsim.New(d)
		sim.StallModel = stall
		if err := sim.Load(p); err != nil {
			return nil, err
		}
		if err := sim.Run(0); err != nil {
			return nil, err
		}
		model := "interlock (paper §3.3.3)"
		if !stall {
			model = "no stall model"
		}
		got := sim.State().Get(out.Storage, out.Base)
		rows = append(rows, StallRow{
			Workload: "dot32", Model: model,
			Cycles: sim.Cycle(), DataStalls: sim.Stats().DataStalls,
			Correct: got.Eq(bitvec.FromUint64(32, ref[0])),
		})
	}
	return rows, nil
}

// RenderStalls prints ablation C.
func RenderStalls(rows []StallRow) string {
	var sb strings.Builder
	sb.WriteString("Ablation C: Stall accounting (§3.3.3) on the SPAM dot-product\n\n")
	fmt.Fprintf(&sb, "  %-10s %-26s %10s %12s %10s\n", "Workload", "Model", "Cycles", "Data stalls", "Correct")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s %-26s %10d %12d %10v\n", r.Workload, r.Model, r.Cycles, r.DataStalls, r.Correct)
	}
	return sb.String()
}
