package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func loadResult(path string) (*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict; then each side's failure share and
// every deterministic count that differs. It returns 1 when any metric is
// worse or unresolved or the failure share rose.
func compareFiles(w io.Writer, oldPath, newPath string) int {
	oldRes, err := loadResult(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	newRes, err := loadResult(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(w, "old: seed %d, %s, rev %s\nnew: seed %d, %s, rev %s\n",
		oldRes.Provenance.Seed, oldRes.Provenance.CPU, oldRes.Provenance.Revision,
		newRes.Provenance.Seed, newRes.Provenance.CPU, newRes.Provenance.Revision)
	status := 0
	olds := map[string]*workloadResult{}
	for _, o := range oldRes.Workloads {
		olds[o.Name] = o
	}
	for _, n := range newRes.Workloads {
		o, ok := olds[n.Name]
		if !ok {
			fmt.Fprintf(w, "\n%s: only in new\n", n.Name)
			continue
		}
		delete(olds, n.Name)
		fmt.Fprintf(w, "\n%s\n", n.Name)
		for _, m := range endToEnd {
			om, nm := o.Metrics[m.name], n.Metrics[m.name]
			if om == nil || nm == nil || om.N == 0 || nm.N == 0 {
				fmt.Fprintf(w, "  %-12s missing\n", m.name)
				status = 1
				continue
			}
			v, change := verdict(m, om, nm)
			if v == "worse" || v == "unresolved" {
				status = 1
			}
			fmt.Fprintf(w, "  %-13s old %-11.6g (median %.6g [%.6g, %.6g])  new %-11.6g (median %.6g [%.6g, %.6g])  %+6.1f%%  %s\n",
				m.name, om.Value, om.Median, om.P25, om.P75, nm.Value, nm.Median, nm.P25, nm.P75, 100*change, v)
		}
		of, nf := failShare(o), failShare(n)
		fmt.Fprintf(w, "  failed       old %d/%d  new %d/%d\n", o.Failed, o.Attempted, n.Failed, n.Attempted)
		if nf > of {
			status = 1
		}
		for _, k := range countDiffs(o.Counts, n.Counts) {
			fmt.Fprintf(w, "  count %-22s old %g  new %g\n", k, o.Counts[k], n.Counts[k])
		}
		if o.Digest != n.Digest {
			fmt.Fprintf(w, "  decisions    old %s  new %s\n", o.Digest, n.Digest)
		}
	}
	for name := range olds {
		fmt.Fprintf(w, "\n%s: only in old\n", name)
	}
	return status
}

// verdict judges one metric's gated value: better, worse or unchanged by
// the metric's bound, or unresolved when either side's interquartile spread
// exceeds the bound and neither side beats the other on every observation.
// change is the share by which new is worse than old (negative: better).
func verdict(m metric, old, new *summary) (string, float64) {
	sign := 1.0
	if m.better == "higher" {
		sign = -1
	}
	change := sign * (new.Value - old.Value) / math.Abs(old.Value)
	bound := m.bound
	if m.name == "setup_s" {
		bound = math.Max(bound, setupFloor.Seconds()/math.Abs(old.Value))
	}
	if old.spread() > bound || new.spread() > bound {
		switch {
		case beats(m, new.Values, old.Values):
			return "better", change
		case beats(m, old.Values, new.Values):
			return "worse", change
		}
		return "unresolved", change
	}
	switch {
	case change > bound:
		return "worse", change
	case change < -bound:
		return "better", change
	}
	return "unchanged", change
}

// beats reports whether every value of a is better than every value of b.
func beats(m metric, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	amin, amax := minMax(a)
	bmin, bmax := minMax(b)
	if m.better == "higher" {
		return amin > bmax
	}
	return amax < bmin
}

func minMax(v []float64) (float64, float64) {
	lo, hi := v[0], v[0]
	for _, x := range v[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

func failShare(wr *workloadResult) float64 {
	if wr.Attempted == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

func countDiffs(a, b map[string]float64) []string {
	var keys []string
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}
