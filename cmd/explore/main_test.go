package main

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/explore"
)

// TestWriteFileWithPartialWrite: the -metrics-out/-trace-out path goes
// through writeFileWith, so an exporter that fails mid-stream must leave
// a pre-existing artifact from an earlier run byte-identical.
func TestWriteFileWithPartialWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := os.WriteFile(path, []byte(`{"from":"previous run"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("exporter failed")
	err := writeFileWith(path, func(w io.Writer) error {
		if _, err := w.Write([]byte(`{"half":`)); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("writeFileWith error = %v, want %v", err, boom)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != `{"from":"previous run"}` {
		t.Fatalf("artifact after failed export = %q, %v; want previous content intact", got, err)
	}
}

// TestFrontierWriterFor pins the -frontier-out format selection: extension
// picks the serializer, anything else fails before the run starts.
func TestFrontierWriterFor(t *testing.T) {
	if w, err := frontierWriterFor(""); w != nil || err != nil {
		t.Errorf("empty name: writer non-nil=%v, err %v; want nil, nil", w != nil, err)
	}
	for _, ok := range []string{"frontier.json", "out/frontier.csv"} {
		w, err := frontierWriterFor(ok)
		if w == nil || err != nil {
			t.Errorf("%s: writer non-nil=%v, err %v; want serializer", ok, w != nil, err)
		}
	}
	for _, bad := range []string{"frontier.txt", "frontier", "frontier.jsonl"} {
		if _, err := frontierWriterFor(bad); err == nil {
			t.Errorf("%s: accepted, want extension error", bad)
		}
	}
}

func TestNormalizeAddr(t *testing.T) {
	cases := map[string]string{
		":8080":          ":8080",
		"localhost:9090": ":9090",
		"7070":           ":7070",
	}
	for in, want := range cases {
		if got := normalizeAddr(in); got != want {
			t.Errorf("normalizeAddr(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCheckFlags pins which command lines explore runs and which it
// rejects before any evaluation. want is a substring of the error, or
// empty for an accepted command line.
func TestCheckFlags(t *testing.T) {
	defaults := runFlags{strategy: "hill", iters: 8, beam: 4, weights: explore.DefaultWeights()}
	cases := []struct {
		name string
		set  string // names of the flags given, space-separated
		edit func(*runFlags)
		want string
	}{
		{"defaults", "m k", nil, ""},
		{"hill golden", "m k iters no-summary", func(f *runFlags) { f.iters = 2 }, ""},
		{"pareto with its flags", "m k strategy frontier-cap frontier-out max-area max-power max-runtime",
			func(f *runFlags) { f.strategy, f.frontierCap = "pareto", 3 }, ""},
		{"beam restarts golden", "m k strategy beam restarts seed iters no-summary",
			func(f *runFlags) { f.strategy, f.restarts, f.iters = "beam", 2, 2 }, ""},
		{"store", "m k store workers", func(f *runFlags) { f.workers = 1 }, ""},
		{"remote as CI runs it", "m k remote trace-out no-summary", nil, ""},
		{"remote with dash and metrics", "m k remote dash metrics-out", nil, ""},

		{"zero iters", "m k iters", func(f *runFlags) { f.iters = 0 }, "-iters 0: want at least 1"},
		{"negative iters", "m k iters", func(f *runFlags) { f.iters = -1 }, "-iters -1"},
		{"zero beam", "m k strategy beam", func(f *runFlags) { f.strategy, f.beam = "beam", 0 }, "-beam 0: want at least 1"},
		{"negative beam", "m k strategy beam", func(f *runFlags) { f.strategy, f.beam = "beam", -2 }, "-beam -2"},
		{"negative restarts", "m k restarts", func(f *runFlags) { f.restarts = -2 }, "-restarts -2"},
		{"negative frontier cap", "m k strategy frontier-cap",
			func(f *runFlags) { f.strategy, f.frontierCap = "pareto", -1 }, "-frontier-cap -1"},
		{"negative workers", "m k workers", func(f *runFlags) { f.workers = -1 }, "-workers -1"},
		{"unknown strategy", "m k strategy", func(f *runFlags) { f.strategy = "anneal" }, `unknown -strategy "anneal"`},

		{"beam without beam strategy", "m k beam", nil, "-beam requires -strategy beam"},
		{"frontier cap under beam", "m k strategy beam frontier-cap",
			func(f *runFlags) { f.strategy = "beam" }, "-frontier-cap requires -strategy pareto"},
		{"frontier out under hill", "m k frontier-out", nil, "-frontier-out requires -strategy pareto"},
		{"constraint under hill", "m k max-area", nil, "-max-area requires -strategy pareto"},
		{"seed without restarts", "m k seed", nil, "-seed requires -restarts"},
		{"seed with zero restarts", "m k seed restarts", nil, "-seed requires -restarts"},
		{"all-zero weights", "m k w-runtime w-area w-power",
			func(f *runFlags) { f.weights = explore.Weights{} }, "all-zero weights"},
		{"NaN weight", "m k w-area", func(f *runFlags) { f.weights.Area = math.NaN() }, "invalid area weight"},
		{"negative constraint", "m k strategy max-power",
			func(f *runFlags) { f.strategy, f.constraints.MaxPowerMW = "pareto", -1 }, "invalid power constraint"},

		{"remote with exploration flags", "m k remote o strategy iters",
			func(f *runFlags) { f.strategy, f.iters = "pareto", 5 }, "does not use -iters -o -strategy"},
		{"remote with store", "m k remote store", nil, "does not use -store"},
	}
	for _, tc := range cases {
		set := map[string]bool{}
		for _, name := range strings.Fields(tc.set) {
			set[name] = true
		}
		f := defaults
		if tc.edit != nil {
			tc.edit(&f)
		}
		err := checkFlags(set, f)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestErrLine pins the exact stderr line for a rejected command line: the
// program prefix appears once, whether the error comes from
// internal/explore (which already starts with it) or from checkFlags.
func TestErrLine(t *testing.T) {
	for _, tc := range []struct {
		edit func(*runFlags)
		want string
	}{
		{func(f *runFlags) { f.weights.Area = -1 }, "explore: invalid area weight -1 (must be >= 0)"},
		{func(f *runFlags) { f.iters = 0 }, "explore: -iters 0: want at least 1"},
	} {
		f := runFlags{strategy: "hill", iters: 8, beam: 4, weights: explore.DefaultWeights()}
		tc.edit(&f)
		err := checkFlags(map[string]bool{"m": true, "k": true}, f)
		if err == nil {
			t.Errorf("accepted, want %q", tc.want)
			continue
		}
		if got := errLine(err); got != tc.want {
			t.Errorf("errLine = %q, want %q", got, tc.want)
		}
	}
}
