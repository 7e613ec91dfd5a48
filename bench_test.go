package repro

// Micro-benchmarks for the layers the end-to-end benchmark in bench/ does
// not isolate: the Table 2 synthesis rows, the DESIGN.md ablations, pipeline
// retiming, and the compiler, assembler and ISDL front end. Table 1,
// exploration and suite throughput are measured by `bash bench/run.sh`
// (bench/README.md). The same Table 2 and ablation measurements, formatted
// as the paper's tables, come from `go run ./cmd/paper`.
//
//	go test -bench=. -benchmem

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/compiler"
	"repro/internal/hgen"
	"repro/internal/isdl"
	"repro/internal/machines"
	"repro/internal/tech"
	"repro/internal/xsim"
)

// --- Table 2: hardware synthesis statistics --------------------------------

func benchSynth(b *testing.B, d *isdl.Description) {
	var last *hgen.Result
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.CycleNs, "cycle-ns")
	b.ReportMetric(float64(last.VerilogLines), "verilog-lines")
	b.ReportMetric(last.AreaCells, "die-cells")
}

// BenchmarkTable2_HGEN_SPAM regenerates the SPAM row of Table 2 (the ns/op
// time is the "synthesis time" column).
func BenchmarkTable2_HGEN_SPAM(b *testing.B) { benchSynth(b, machines.SPAM()) }

// BenchmarkTable2_HGEN_SPAM2 regenerates the SPAM2 row of Table 2.
func BenchmarkTable2_HGEN_SPAM2(b *testing.B) { benchSynth(b, machines.SPAM2()) }

// --- Ablation A: resource sharing (Figure 5) -------------------------------

func benchSharing(b *testing.B, mode hgen.SharingMode) {
	d := machines.SPAM()
	var area, datapath float64
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: mode, Decode: hgen.DecodeTwoLevel})
		if err != nil {
			b.Fatal(err)
		}
		area = r.AreaCells
		datapath = r.Breakdown["datapath"] + r.Breakdown["operand muxes"]
	}
	b.ReportMetric(area, "die-cells")
	b.ReportMetric(datapath, "datapath-cells")
}

func BenchmarkAblation_SharingOff(b *testing.B)   { benchSharing(b, hgen.ShareOff) }
func BenchmarkAblation_SharingRules(b *testing.B) { benchSharing(b, hgen.ShareRules) }
func BenchmarkAblation_SharingFull(b *testing.B)  { benchSharing(b, hgen.ShareRulesAndConstraints) }

// --- Ablation B: decode style (§4.2) ----------------------------------------

func benchDecode(b *testing.B, style hgen.DecodeStyle) {
	d := machines.SPAM()
	var area float64
	for i := 0; i < b.N; i++ {
		r, err := hgen.Synthesize(d, tech.LSI10K(), hgen.Options{Sharing: hgen.ShareRulesAndConstraints, Decode: style})
		if err != nil {
			b.Fatal(err)
		}
		area = r.Breakdown["decode"]
	}
	b.ReportMetric(area, "decode-cells")
}

func BenchmarkAblation_DecodeTwoLevel(b *testing.B)   { benchDecode(b, hgen.DecodeTwoLevel) }
func BenchmarkAblation_DecodeComparator(b *testing.B) { benchDecode(b, hgen.DecodeComparator) }

// --- Ablation C: stall model (§3.3.3) ---------------------------------------

func benchStalls(b *testing.B, model bool) {
	const n = 32
	x, y := machines.VecTestVectors(n)
	d := machines.SPAM()
	p, err := asm.Assemble(d, machines.DotSPAM(n, x, y))
	if err != nil {
		b.Fatal(err)
	}
	sim := xsim.New(d)
	sim.StallModel = model
	var cycles, stalls uint64
	for i := 0; i < b.N; i++ {
		if err := sim.Load(p); err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(0); err != nil {
			b.Fatal(err)
		}
		cycles = sim.Cycle()
		stalls = sim.Stats().DataStalls
	}
	b.ReportMetric(float64(cycles), "cycles")
	b.ReportMetric(float64(stalls), "data-stalls")
}

func BenchmarkAblation_StallsOn(b *testing.B)  { benchStalls(b, true) }
func BenchmarkAblation_StallsOff(b *testing.B) { benchStalls(b, false) }

// --- Infrastructure benches -------------------------------------------------

// BenchmarkAssembleFIR measures the retargetable assembler.
func BenchmarkAssembleFIR(b *testing.B) {
	const taps, nout = 16, 48
	samples, coefs := machines.FIRTestVectors(taps, nout)
	d := machines.SPAM()
	src := machines.FIRSPAM(taps, nout, samples, coefs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble(d, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseISDL measures the description front end.
func BenchmarkParseISDL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := isdl.Parse(machines.SPAMSource); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extension: §6.2 pipeline retiming ---------------------------------------

// BenchmarkExtension_RetimeSPAM measures the pipeline optimizer driving SPAM
// toward a 60 ns cycle (the achieved cycle is reported as a metric).
func BenchmarkExtension_RetimeSPAM(b *testing.B) {
	d := machines.SPAM()
	var achieved float64
	for i := 0; i < b.N; i++ {
		res, err := hgen.RetimeForCycle(d, tech.LSI10K(), 60)
		if err != nil {
			b.Fatal(err)
		}
		achieved = res.CycleNs
	}
	b.ReportMetric(achieved, "cycle-ns")
}

// BenchmarkCompileKernel measures the retargetable compiler on a small
// kernel across the bundled machines.
func BenchmarkCompileKernel(b *testing.B) {
	const kernel = `
var i, s;
array a[16] in DM at 0 = { 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16 };
s = 0;
for i = 0 to 15 { s = s + a[i]; }
`
	d := machines.SPAM2()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := compiler.Compile(d, kernel); err != nil {
			b.Fatal(err)
		}
	}
}
