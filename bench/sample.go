package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// sample is what one sample process reports to the parent.
type sample struct {
	// FirstOpUnixNs is the wall clock at the first timed operation; the
	// parent subtracts its spawn time to get setup_s.
	FirstOpUnixNs int64 `json:"first_op_unix_ns"`
	// WallS is the wall time of the timed part.
	WallS float64 `json:"wall_s"`
	// Obs are the sample's observations of ops_per_s_p90: one per exploration
	// or sweep, one per ILS batch, one per Verilog run.
	Obs       []float64 `json:"obs"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"`
	// Digest fingerprints an exploration's decisions.
	Digest string `json:"digest,omitempty"`
	// Counts are deterministic: every sample of a seed must agree.
	Counts    map[string]float64 `json:"counts"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	// Layers and Spans come from a traced sample only.
	Layers map[string]float64 `json:"layers,omitempty"`
	Spans  []obs.WireSpan     `json:"spans,omitempty"`

	// SetupS is filled in by the parent.
	SetupS float64 `json:"-"`
	start  time.Time
}

func newSample() *sample { return &sample{Counts: map[string]float64{}} }

func (s *sample) begin() {
	s.start = time.Now()
	s.FirstOpUnixNs = s.start.UnixNano()
}

// end closes the timed window and returns its length in seconds.
func (s *sample) end() float64 {
	s.WallS = time.Since(s.start).Seconds()
	return s.WallS
}

func (s *sample) fail(err error) {
	s.Failed++
	if len(s.Errors) < 5 {
		s.Errors = append(s.Errors, err.Error())
	}
}

// childEnv carries a childSpec to a re-executed sample process.
const childEnv = "REPRO_BENCH_CHILD"

type childSpec struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke,omitempty"`
	Traced   bool   `json:"traced,omitempty"`
}

// childMain runs one sample in this process and writes it to stdout as
// the last line. Process-global caches start empty, exactly as they do
// for a user's explore or paper invocation.
func childMain(spec string) int {
	var cs childSpec
	if err := json.Unmarshal([]byte(spec), &cs); err != nil {
		fmt.Fprintln(os.Stderr, "bench: bad child spec:", err)
		return 2
	}
	s, err := runSample(cs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", cs.Workload, "set-up:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// runSample sets up and runs one sample of a workload in this process.
func runSample(cs childSpec) (*sample, error) {
	w, err := workloadByName(cs.Workload)
	if err != nil {
		return nil, err
	}
	c := config{seed: cs.Seed, smoke: cs.Smoke}
	if cs.Traced {
		c.reg = obs.NewRegistry()
		c.acc = map[string]float64{}
	}
	r, err := w.setup(c)
	if err != nil {
		return nil, err
	}
	s := r.run()
	s.PeakRSSMB = peakRSSMB()
	if cs.Traced {
		s.Layers = collectLayers(c)
		var roots []uint64
		for _, sp := range c.reg.Spans() {
			if sp.Parent == 0 {
				roots = append(roots, sp.ID)
			}
		}
		s.Spans = c.reg.ExportSubtrees(roots...)
	}
	return s, nil
}

// spawn runs one sample in a fresh child process (a re-exec of this
// binary) and waits for it to exit. tmp holds the traced sample's private
// simulator build cache.
func spawn(cs childSpec, tmp string) (*sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	spec, _ := json.Marshal(cs)
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	if cs.Traced {
		cache, err := os.MkdirTemp(tmp, "gensim-")
		if err != nil {
			return nil, err
		}
		cmd.Env = append(cmd.Env, "REPRO_GENSIM_CACHE="+cache)
	}
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s sample: %w", cs.Workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	s := &sample{}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), s); err != nil {
		return nil, fmt.Errorf("%s sample: bad report: %w", cs.Workload, err)
	}
	s.SetupS = float64(s.FirstOpUnixNs-spawned.UnixNano()) / 1e9
	return s, nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// provenance records where and how a result was measured.
type provenance struct {
	Seed     int64          `json:"seed"`
	Samples  map[string]int `json:"samples"`
	Seconds  int            `json:"seconds,omitempty"`
	NProc    int            `json:"nproc"`
	CPU      string         `json:"cpu"`
	Go       string         `json:"go"`
	Revision string         `json:"revision"`
}

func hostProvenance(seed int64) provenance {
	p := provenance{Seed: seed, Samples: map[string]int{}, NProc: runtime.NumCPU(),
		CPU: "unknown", Go: runtime.Version(), Revision: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "-dirty"
				}
			}
		}
		if rev != "" {
			p.Revision = rev + dirty
		}
	}
	return p
}
