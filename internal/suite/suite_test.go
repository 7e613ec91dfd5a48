package suite_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machines"
	"repro/internal/suite"
)

func TestRegistry(t *testing.T) {
	w, err := suite.Get("dot")
	if err != nil {
		t.Fatal(err)
	}
	if w.Kernel == "" || !w.HasTag("dsp") {
		t.Fatalf("dot workload malformed: %+v", w)
	}
	if _, err := suite.Get("nonesuch"); err == nil {
		t.Fatal("Get should reject unknown workloads")
	}

	all := suite.All(suite.Filter{})
	if len(all) < 9 { // 8 kernels + at least one asm workload
		t.Fatalf("registry has %d workloads, want >= 9", len(all))
	}
	dsp := suite.All(suite.Filter{Tag: "dsp"})
	if len(dsp) == 0 {
		t.Fatal("no dsp-tagged workloads")
	}
	for _, w := range dsp {
		if !w.HasTag("dsp") {
			t.Fatalf("%s matched tag dsp without having it", w.Name)
		}
	}
	byName := suite.All(suite.Filter{Name: "crc"})
	if len(byName) != 1 || byName[0].Name != "crc" {
		t.Fatalf("Filter{Name: crc} = %v", suite.Names(suite.Filter{Name: "crc"}))
	}
}

func TestRegisterValidation(t *testing.T) {
	cases := map[string]suite.Workload{
		"empty name":       {Kernel: "var x; x = 1;"},
		"no body":          {Name: "w"},
		"kernel and asm":   {Name: "w", Kernel: "var x;", Asm: func() string { return "" }},
		"asm sans machine": {Name: "w", Asm: func() string { return "" }},
		"duplicate of dot": {Name: "dot", Kernel: "var x; x = 1;"},
	}
	for name, w := range cases {
		if err := suite.Register(w); err == nil {
			t.Errorf("%s: Register accepted %+v", name, w)
		}
	}
}

// TestReferencePinned pins the golden interpreter's outputs for the
// registry kernels on a 32-bit machine: these are the values the
// simulator and the Verilog model are checked against, so they must never
// drift.
func TestReferencePinned(t *testing.T) {
	d, err := machines.ByName("riscv5")
	if err != nil {
		t.Fatal(err)
	}
	pinned := map[string]struct {
		idx  int
		want uint64
	}{
		"dot":       {0, 157},
		"mulhw":     {0, 157},
		"crc":       {0, 2908},
		"strsearch": {0, 3}, // occurrence count; out[1] is the first index
	}
	for name, p := range pinned {
		w, err := suite.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		_, _, ref, err := suite.Prepare(w, d)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ref[p.idx] != p.want {
			t.Errorf("%s: ref[%d] = %d, want %d", name, p.idx, ref[p.idx], p.want)
		}
	}
	// strsearch's first-match index rides in out[1].
	w, _ := suite.Get("strsearch")
	_, _, ref, err := suite.Prepare(w, d)
	if err != nil {
		t.Fatal(err)
	}
	if ref[1] != 0 {
		t.Errorf("strsearch first match = %d, want 0", ref[1])
	}
	// isort's reference output is sorted.
	ws, _ := suite.Get("isort")
	_, _, sorted, err := suite.Prepare(ws, d)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i-1] > sorted[i] {
			t.Fatalf("isort reference not sorted: %v", sorted)
		}
	}
}

// TestSuiteAcrossBackends runs every registered workload on every zoo
// machine, demanding either a clean Unsupported classification or a
// reference-verified run. This is the per-kernel regression matrix of the
// suite registry; the simulator is its one backend.
func TestSuiteAcrossBackends(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload × machine matrix is not -short")
	}
	verified := 0
	for _, w := range suite.All(suite.Filter{}) {
		for _, m := range machines.ZooNames() {
			if w.Machine != "" && w.Machine != m {
				continue // asm workload pinned to one machine
			}
			res, err := suite.Run(w, m)
			if err != nil {
				var u *suite.Unsupported
				if errors.As(err, &u) {
					continue // a clean can't-target classification
				}
				t.Errorf("%s on %s: %v", w.Name, m, err)
				continue
			}
			if res.Out == nil || len(res.Out) != len(res.Ref) {
				t.Errorf("%s on %s: malformed result", w.Name, m)
			}
			verified++
		}
	}
	// 37 supported pairs as of the registry's seeding; the floor only
	// guards against the matrix silently collapsing.
	if verified < 37 {
		t.Errorf("only %d verified runs, want >= 37", verified)
	}
}

// TestUnsupportedClassification pins the pairs the toolchain cannot target
// and the error type that reports them.
func TestUnsupportedClassification(t *testing.T) {
	for _, c := range []struct{ workload, machine string }{
		{"crc", "toy"},    // no shift or xor
		{"crc", "risc32"}, // register-only shifts mask their amount operand
		{"mulhw", "spam"}, // mul targets ACC, not the register file
	} {
		_, err := suite.Run(mustGet(t, c.workload), c.machine)
		var u *suite.Unsupported
		if !errors.As(err, &u) {
			t.Errorf("%s on %s: err = %v, want Unsupported", c.workload, c.machine, err)
		}
	}
	// A workload pinned to one machine must refuse to run elsewhere.
	if _, err := suite.Run(mustGet(t, "fir16.spam"), "toy"); err == nil {
		t.Error("fir16.spam ran on toy")
	}
}

func mustGet(t *testing.T, name string) *suite.Workload {
	t.Helper()
	w, err := suite.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestKernelFilesInSync keeps examples/kernels/<name>.k bit-identical to
// the registered KernelSources: the files are the user-facing form of the
// suite kernels (kcc/explore take -k paths), the registry is the compiled-in
// form, and they must not drift apart.
func TestKernelFilesInSync(t *testing.T) {
	for name, src := range suite.KernelSources {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "kernels", name+".k"))
		if err != nil {
			t.Errorf("%s: %v (regenerate from suite.KernelSources)", name, err)
			continue
		}
		if string(b) != src {
			t.Errorf("examples/kernels/%s.k differs from suite.KernelSources[%q]", name, name)
		}
	}
}
