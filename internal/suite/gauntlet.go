package suite

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/bitvec"
	"repro/internal/cosim"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/randmachine"
	"repro/internal/tech"
	"repro/internal/verilog"
	"repro/internal/xsim"
)

// The differential fuzz gauntlet: each trial generates a random compilable
// machine (randmachine ForCompiler, optionally timing-perturbed), compiles
// a registry kernel for it, and runs the program through every layer of the
// generated-tool pipeline — the golden kernel interpreter, the two xsim
// backends, and the synthesized Verilog model — demanding bit-identical
// architectural results. Any disagreement is a Divergence carrying the
// trial's seed, and RunTrial(seed) reproduces the whole trial from that
// seed alone: the report prints everything needed to replay a failure on
// another machine. With a fixed base seed the entire report (JSON included)
// is byte-identical across runs — the nightly CI job relies on that to diff
// reruns.

// GauntletOptions configures a gauntlet run.
type GauntletOptions struct {
	// N is the trial count (default 10).
	N int
	// Seed is the base seed; per-trial seeds derive from it by splitmix64.
	Seed int64
	// NoCosim skips the synthesized-Verilog leg (the slowest one).
	NoCosim bool
}

const (
	// cosimMaxCycles bounds the Verilog model per trial. The hardware
	// model retires one instruction per tick, so this is an instruction
	// bound; the seeded kernels need at most a few thousand.
	cosimMaxCycles = 200_000
	// maxPerturb bounds the random timing/depth perturbations applied to
	// each generated machine.
	maxPerturb = 2
)

func (o *GauntletOptions) defaults() {
	if o.N <= 0 {
		o.N = 10
	}
}

// Divergence is one cross-model disagreement, replayable from Seed.
type Divergence struct {
	Trial  int    `json:"trial"`
	Seed   int64  `json:"seed"`
	Kernel string `json:"kernel"`
	// Leg names the comparison that disagreed: "golden" (interp vs the
	// kernel interpreter), "aot" (vs interp), "synth"
	// (hardware generation failed), "cosim" (Verilog vs interp).
	Leg    string `json:"leg"`
	Detail string `json:"detail"`
}

// Trial is one gauntlet trial's deterministic record.
type Trial struct {
	Trial  int    `json:"trial"`
	Seed   int64  `json:"seed"`
	Kernel string `json:"kernel"`

	WordWidth     int      `json:"word_width"`
	RegWidth      int      `json:"reg_width"`
	UseNT         bool     `json:"use_nt"`
	ALUOps        []string `json:"alu_ops"`
	Perturbations []string `json:"perturbations,omitempty"`

	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	AOTUsed      string `json:"aot_used"`

	Divergences []Divergence `json:"divergences,omitempty"`
	// Err records an infrastructure failure (generation, compilation, a
	// faulting run) — not a divergence, but never acceptable either.
	Err string `json:"err,omitempty"`
}

// GauntletReport is a full gauntlet run.
type GauntletReport struct {
	N           int     `json:"n"`
	Seed        int64   `json:"seed"`
	Cosim       bool    `json:"cosim"`
	Trials      []Trial `json:"trials"`
	Divergences int     `json:"divergences"`
	Errors      int     `json:"errors"`
}

// Clean reports whether the run saw no divergences and no errors.
func (r *GauntletReport) Clean() bool { return r.Divergences == 0 && r.Errors == 0 }

// TrialSeed derives trial i's seed from the base seed (splitmix64), so any
// single trial can be replayed without rerunning its predecessors.
func TrialSeed(base int64, i int) int64 {
	z := uint64(base) + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// RunGauntlet runs N trials and aggregates the report. Trials run
// sequentially: determinism (byte-identical reruns) is the point of the
// exercise, and the aot leg already parallelizes its builds internally.
func RunGauntlet(o GauntletOptions) *GauntletReport {
	o.defaults()
	r := &GauntletReport{N: o.N, Seed: o.Seed, Cosim: !o.NoCosim}
	for i := 0; i < o.N; i++ {
		tr := RunTrial(i, TrialSeed(o.Seed, i), o)
		r.Trials = append(r.Trials, tr)
		r.Divergences += len(tr.Divergences)
		if tr.Err != "" {
			r.Errors++
		}
	}
	return r
}

// RunTrial runs one gauntlet trial from its seed — the replay entry point
// for a printed divergence.
func RunTrial(trial int, seed int64, o GauntletOptions) Trial {
	o.defaults()
	tr := Trial{Trial: trial, Seed: seed}
	rnd := rand.New(rand.NewSource(seed))

	m := randmachine.Generate(rnd, randmachine.Config{ForCompiler: true})
	tr.WordWidth, tr.RegWidth, tr.UseNT, tr.ALUOps = m.WordWidth, m.RegWidth, m.UseNT, m.ALUOps

	names := PortableNames()
	tr.Kernel = names[rnd.Intn(len(names))]

	src := m.Source
	if n := rnd.Intn(maxPerturb + 1); n > 0 {
		var err error
		src, tr.Perturbations, err = randmachine.Perturb(rnd, src, n)
		if err != nil {
			tr.Err = fmt.Sprintf("perturb: %v", err)
			return tr
		}
	}
	d, err := isdl.Parse(src)
	if err != nil {
		tr.Err = fmt.Sprintf("parse generated machine: %v", err)
		return tr
	}

	w, err := Get(tr.Kernel)
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	prog, out, ref, err := Prepare(w, d)
	if err != nil {
		tr.Err = fmt.Sprintf("prepare: %v", err)
		return tr
	}

	diverge := func(leg, detail string) {
		tr.Divergences = append(tr.Divergences, Divergence{
			Trial: trial, Seed: seed, Kernel: tr.Kernel, Leg: leg, Detail: detail,
		})
	}

	// Reference leg: the interp backend, compared against the golden
	// kernel interpreter's output region.
	interp, _, err := xsim.NewEngine(d, xsim.BackendInterp)
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	defer interp.Close()
	if err := runEngine(interp, prog); err != nil {
		tr.Err = fmt.Sprintf("interp: %v", err)
		return tr
	}
	wantStats := interp.Stats()
	tr.Cycles, tr.Instructions = wantStats.Cycles, wantStats.Instructions
	got, err := extractRegion(interp, d, out)
	if err != nil {
		tr.Err = fmt.Sprintf("interp: %v", err)
		return tr
	}
	if err := compareOutputs(got, ref); err != nil {
		diverge("golden", err.Error())
	}
	want := interp.Snapshot()

	// aot leg: the generated simulator must match interp bit for bit. On
	// a fallback the leg would repeat the reference leg, so it is skipped.
	aot, info, err := xsim.NewEngine(d, xsim.BackendAOT)
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	tr.AOTUsed = string(info.Used)
	if info.Used == xsim.BackendAOT {
		if err := runEngine(aot, prog); err != nil {
			diverge("aot", err.Error())
		} else {
			if d := diffStats(wantStats, aot.Stats()); d != "" {
				diverge("aot", d)
			}
			if d := diffSnapshots(want, aot.Snapshot()); d != "" {
				diverge("aot", d)
			}
		}
	}
	aot.Close()

	// Hardware leg: synthesize, then run the event-driven Verilog model to
	// halt and demand the same final architectural state.
	if !o.NoCosim {
		if err := cosimLeg(d, prog, want); err != nil {
			leg := "cosim"
			if strings.HasPrefix(err.Error(), "synthesize:") {
				leg = "synth"
			}
			diverge(leg, err.Error())
		}
	}
	return tr
}

func runEngine(eng xsim.Engine, prog *asm.Program) error {
	if err := eng.Load(prog); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if err := eng.Run(DefaultLimit); err != nil {
		return fmt.Errorf("run: %w", err)
	}
	if err := eng.Err(); err != nil {
		return fmt.Errorf("faulted: %w", err)
	}
	if !eng.Halted() {
		return fmt.Errorf("did not halt within %d instructions", int64(DefaultLimit))
	}
	return nil
}

// diffStats reports the first architectural-statistics disagreement, or "".
func diffStats(a, b xsim.Stats) string {
	type f struct {
		name string
		a, b uint64
	}
	for _, x := range []f{
		{"cycles", a.Cycles, b.Cycles},
		{"instructions", a.Instructions, b.Instructions},
		{"data stalls", a.DataStalls, b.DataStalls},
		{"struct stalls", a.StructStalls, b.StructStalls},
		{"reads", a.Reads, b.Reads},
		{"writes", a.Writes, b.Writes},
	} {
		if x.a != x.b {
			return fmt.Sprintf("stats: %s %d vs %d (interp)", x.name, x.b, x.a)
		}
	}
	if len(a.OpCounts) != len(b.OpCounts) {
		return fmt.Sprintf("stats: %d op counters vs %d (interp)", len(b.OpCounts), len(a.OpCounts))
	}
	for op, n := range a.OpCounts {
		if b.OpCounts[op] != n {
			return fmt.Sprintf("stats: op %s count %d vs %d (interp)", op, b.OpCounts[op], n)
		}
	}
	return ""
}

// diffSnapshots reports the first storage disagreement, or "".
func diffSnapshots(a, b map[string][]bitvec.Value) string {
	if len(a) != len(b) {
		return fmt.Sprintf("snapshot: %d storages vs %d (interp)", len(b), len(a))
	}
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		av, bv := a[n], b[n]
		if len(av) != len(bv) {
			return fmt.Sprintf("snapshot: %s depth %d vs %d (interp)", n, len(bv), len(av))
		}
		for i := range av {
			if !av[i].Eq(bv[i]) {
				return fmt.Sprintf("snapshot: %s[%d] = %s vs %s (interp)", n, i, bv[i], av[i])
			}
		}
	}
	return ""
}

// cosimLeg synthesizes the machine, runs the program on the event-driven
// Verilog model through internal/cosim, and compares the final
// architectural state against the interp snapshot (IMEM excluded,
// mirroring the hgen co-simulation tests; the hardware model retires one
// instruction per tick, so cycle counts are not comparable to the ILS's
// stall-aware count).
//
// The hardware runs in lockstep with a fresh reference interpreter: one
// clock tick per interpreter step, stopping when the interpreter halts.
// Polling the hardware's own halted net instead would be wrong on machines
// with a pipelined halt (Perturb can deepen it): the datapath is not gated
// once halted, so every extra fetch past the halt executes a ghost
// instruction, and each harness observes the halt a different number of
// cycles after it issues. Lockstep makes both models execute exactly the
// same instruction sequence, so every storage — PC included — must match.
func cosimLeg(d *isdl.Description, prog *asm.Program, want map[string][]bitvec.Value) error {
	r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
	if err != nil {
		return fmt.Errorf("synthesize: %w", err)
	}
	mod, err := verilog.Parse(r.VerilogText)
	if err != nil {
		return fmt.Errorf("synthesize: parse generated Verilog: %w", err)
	}
	ils := xsim.New(d)
	if err := ils.Load(prog); err != nil {
		return fmt.Errorf("hw run: load: %w", err)
	}
	var hw *verilog.Sim
	pool := &cosim.Pool{Workers: 1}
	if _, err := pool.Run("gauntlet", 1, func(_ int, l *cosim.Lane) error {
		if err := l.Setup(func() error {
			var err error
			if hw, err = verilog.NewSim(mod); err != nil {
				return err
			}
			return cosim.LoadProgram(hw, prog)
		}); err != nil {
			return err
		}
		var steps uint64
		err := l.Sim(func() error {
			for !ils.Halted() {
				if steps >= cosimMaxCycles {
					return fmt.Errorf("hardware model did not halt within %d cycles", cosimMaxCycles)
				}
				if err := ils.Step(); err != nil {
					return fmt.Errorf("lockstep reference faulted: %w", err)
				}
				if err := hw.Tick("clk"); err != nil {
					return err
				}
				steps++
			}
			return nil
		})
		l.AddCycles(steps)
		l.AddEvents(hw.Events())
		return err
	}); err != nil {
		return fmt.Errorf("hw run: %w", err)
	}
	hv, err := hw.Get("halted")
	if err != nil {
		return err
	}
	if hv.IsZero() {
		return fmt.Errorf("hardware model did not assert halted at the reference halt point")
	}
	// The lockstep reference must agree with the interp-leg snapshot — it
	// is the same interpreter run the same way; drift here would mean the
	// harness, not the hardware, diverged.
	if drift := diffSnapshots(want, ils.Snapshot()); drift != "" {
		return fmt.Errorf("lockstep reference drifted from interp leg: %s", drift)
	}
	for _, st := range d.Storage {
		if st.Kind == isdl.StInstructionMemory {
			continue
		}
		for i := 0; i < depthOf(st); i++ {
			var got bitvec.Value
			var err error
			if st.Kind.Addressed() {
				got, err = hw.GetMem("s_"+st.Name, i)
			} else {
				got, err = hw.Get("s_" + st.Name)
			}
			if err != nil {
				return err
			}
			if w := want[st.Name][i]; !got.Eq(w) {
				return fmt.Errorf("%s[%d] = %s (hw) vs %s (interp)", st.Name, i, got, w)
			}
		}
	}
	return nil
}

func depthOf(st *isdl.Storage) int {
	if st.Kind.Addressed() {
		return st.Depth
	}
	return 1
}

// Render formats the report as a fixed-width table plus a divergence list
// (deterministic: rerunning with the same seed reproduces it byte for
// byte).
func (r *GauntletReport) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "differential gauntlet: %d trials, seed %d, cosim %v\n\n", r.N, r.Seed, r.Cosim)
	fmt.Fprintf(&sb, "%5s  %20s  %-9s  %3s/%2s  %3s  %8s  %8s  %-8s  %s\n",
		"trial", "seed", "kernel", "w", "rw", "nt", "cycles", "instrs", "aot", "status")
	for _, t := range r.Trials {
		status := "ok"
		if t.Err != "" {
			status = "ERROR: " + t.Err
		} else if len(t.Divergences) > 0 {
			status = fmt.Sprintf("DIVERGED (%d)", len(t.Divergences))
		}
		nt := "-"
		if t.UseNT {
			nt = "nt"
		}
		fmt.Fprintf(&sb, "%5d  %20d  %-9s  %3d/%2d  %3s  %8d  %8d  %-8s  %s\n",
			t.Trial, t.Seed, t.Kernel, t.WordWidth, t.RegWidth, nt,
			t.Cycles, t.Instructions, t.AOTUsed, status)
	}
	sb.WriteString("\n")
	if r.Clean() {
		fmt.Fprintf(&sb, "all %d trials agree across interp/aot%s\n",
			r.N, map[bool]string{true: "/cosim", false: ""}[r.Cosim])
		return sb.String()
	}
	fmt.Fprintf(&sb, "%d divergence(s), %d error(s)\n", r.Divergences, r.Errors)
	for _, t := range r.Trials {
		for _, dv := range t.Divergences {
			fmt.Fprintf(&sb, "  trial %d leg %s kernel %s: %s\n    replay: paper -gauntlet -gauntlet-n 1 -seed-replay %d\n",
				dv.Trial, dv.Leg, dv.Kernel, dv.Detail, dv.Seed)
		}
	}
	return sb.String()
}
