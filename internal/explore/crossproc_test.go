package explore_test

// The tentpole acceptance test: two *processes* sharing a directory
// blob store never evaluate the same architecture twice. Process A (a
// re-exec of this test binary) explores SPAM and populates the store;
// process B re-runs the identical exploration and recomputes nothing —
// every stage except Parse (never cached by design) reports zero misses,
// the Combine tier serves every candidate, and the Result is
// byte-identical.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"testing"

	"repro/internal/blob"
	"repro/internal/core"
	"repro/internal/explore"
	"repro/internal/machines"
)

// crossProcOut is what the helper process reports back, bracketed by
// crossProcMarker on its own stdout line.
type crossProcOut struct {
	Report      string               `json:"report"`
	FinalSource string               `json:"final_source"`
	Stages      map[string][2]uint64 `json:"stages"` // name -> [hits, misses]
	StoreServed uint64               `json:"store_served"`
}

const crossProcMarker = "CROSSPROC_JSON:"

func runCrossProcExplore(t *testing.T, storeDir string) crossProcOut {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run", "TestCrossProcessExploreHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "EXPLORE_CROSSPROC_STORE="+storeDir)
	raw, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("helper process failed: %v\n%s", err, raw)
	}
	for _, line := range bytes.Split(raw, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte(crossProcMarker)); ok {
			var out crossProcOut
			if err := json.Unmarshal(rest, &out); err != nil {
				t.Fatalf("bad helper payload: %v\n%s", err, rest)
			}
			return out
		}
	}
	t.Fatalf("helper produced no %s line:\n%s", crossProcMarker, raw)
	return crossProcOut{}
}

func TestCrossProcessStoreSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns two exploration processes")
	}
	storeDir := t.TempDir()

	a := runCrossProcExplore(t, storeDir) // process A: populates
	b := runCrossProcExplore(t, storeDir) // process B: must only read

	if a.Report != b.Report || a.FinalSource != b.FinalSource {
		t.Errorf("results diverge across processes:\nA report:\n%s\nB report:\n%s", a.Report, b.Report)
	}
	for name, hm := range b.Stages {
		if name == "parse" {
			continue // parse is never cached; every run is counted a miss
		}
		if hm[1] != 0 {
			t.Errorf("process B recomputed stage %s (%d misses) despite the shared store", name, hm[1])
		}
	}
	if b.Stages["combine"][0] == 0 {
		t.Error("process B's combine stage served no hits; store sharing did not happen")
	}
	if b.StoreServed == 0 {
		t.Error("process B reports zero store-tier hits")
	}
}

// TestCrossProcessExploreHelper is one exploration process; it only runs
// when re-executed with the store directory in the environment.
func TestCrossProcessExploreHelper(t *testing.T) {
	storeDir := os.Getenv("EXPLORE_CROSSPROC_STORE")
	if storeDir == "" {
		t.Skip("helper; run via TestCrossProcessStoreSharing")
	}
	st, err := blob.NewDir(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cache := core.NewStageCache(nil, st)
	res, err := explore.New(machines.SPAM2Source, kernel,
		explore.WithCache(cache),
		explore.WithMaxIters(2),
		explore.WithWorkers(4),
	).Run()
	if err != nil {
		t.Fatal(err)
	}
	out := crossProcOut{
		Report:      res.Report(),
		FinalSource: res.FinalSource,
		Stages:      map[string][2]uint64{},
	}
	for s, hm := range cache.PerStage() {
		out.Stages[core.Stage(s).String()] = [2]uint64{hm.Hits, hm.Misses}
	}
	out.StoreServed, _, _ = cache.StoreStats()
	payload, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("%s%s\n", crossProcMarker, payload)
}
