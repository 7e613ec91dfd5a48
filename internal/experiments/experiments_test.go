package experiments_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/hgen"
)

// TestTable1Shape runs the Table 1 measurement with a tiny budget and checks
// the paper's headline: the ILS is much faster than simulating the Verilog
// model.
func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("measurement test")
	}
	t1, err := experiments.RunTable1Opts(experiments.Table1Options{Budget: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if t1.Speedup() < 10 {
		t.Errorf("ILS speedup only %.1fx over the Verilog model", t1.Speedup())
	}
	out := t1.Render()
	for _, want := range []string{"Table 1", "XSIM", "Verilog", "Speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := experiments.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Processor != "SPAM" || rows[1].Processor != "SPAM2" {
		t.Fatalf("rows: %+v", rows)
	}
	if !(rows[0].CycleNs > rows[1].CycleNs && rows[0].DieSizeCells > rows[1].DieSizeCells && rows[0].VerilogLines > rows[1].VerilogLines) {
		t.Errorf("SPAM should dominate SPAM2 on every column: %+v", rows)
	}
	if !strings.Contains(experiments.RenderTable2(rows), "Table 2") {
		t.Error("render missing header")
	}
}

// TestExhaustionWarnings: Table 2 and Ablation A warn about a die size
// left conservative by an exhausted sharing search, and only then.
func TestExhaustionWarnings(t *testing.T) {
	t2 := []experiments.Table2Row{{Processor: "SPAM"}, {Processor: "BIG", CoexistExhausted: 3}}
	out := experiments.RenderTable2(t2)
	if !strings.Contains(out, "warning: BIG: 3 operation pairs exhausted") || strings.Contains(out, "warning: SPAM") {
		t.Errorf("Table 2 warnings:\n%s", out)
	}
	sh := []experiments.SharingRow{{Processor: "BIG", Mode: hgen.ShareRules}, {Processor: "BIG", Mode: hgen.ShareRulesAndConstraints, CoexistExhausted: 2}}
	out = experiments.RenderSharing(sh)
	if !strings.Contains(out, "warning: BIG rules+constraints: 2 operation pairs exhausted") || strings.Count(out, "warning") != 1 {
		t.Errorf("Ablation A warnings:\n%s", out)
	}
	if out := experiments.RenderTable2(t2[:1]); strings.Contains(out, "warning") {
		t.Errorf("warning without exhaustion:\n%s", out)
	}
}

func TestAblations(t *testing.T) {
	sh, err := experiments.RunAblationSharing()
	if err != nil {
		t.Fatal(err)
	}
	// SPAM rows come first: off > rules >= rules+constraints on datapath.
	if !(sh[0].Datapath > sh[1].Datapath && sh[1].Datapath >= sh[2].Datapath) {
		t.Errorf("sharing ablation shape: %+v", sh[:3])
	}
	if !strings.Contains(experiments.RenderSharing(sh), "Ablation A") {
		t.Error("sharing render missing header")
	}

	de, err := experiments.RunAblationDecode()
	if err != nil {
		t.Fatal(err)
	}
	if !(de[0].DecodeArea < de[1].DecodeArea) {
		t.Errorf("two-level decode should be smaller: %+v", de[:2])
	}
	if !strings.Contains(experiments.RenderDecode(de), "Ablation B") {
		t.Error("decode render missing header")
	}

	st, err := experiments.RunAblationStalls()
	if err != nil {
		t.Fatal(err)
	}
	if !(st[0].Correct && !st[1].Correct) {
		t.Errorf("stall ablation correctness: %+v", st)
	}
	if !(st[0].Cycles > st[1].Cycles && st[0].DataStalls > 0) {
		t.Errorf("stall ablation cycles: %+v", st)
	}
	if !strings.Contains(experiments.RenderStalls(st), "Ablation C") {
		t.Error("stalls render missing header")
	}
}
