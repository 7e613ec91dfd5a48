package main

import (
	"math"
	"sort"
)

// summary is one metric over every observation of a set of samples.
type summary struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// Value is the gated statistic: the metric's gate quantile.
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	// TailPct is the most extreme percentile on the worse side with at
	// least ten observations beyond it (0 with fewer than 11), Tail its
	// value.
	TailPct float64   `json:"tail_pct,omitempty"`
	Tail    float64   `json:"tail,omitempty"`
	N       int       `json:"n"`
	Values  []float64 `json:"values"`
}

func summarize(m metric, vals []float64) *summary {
	v := append([]float64(nil), vals...)
	sort.Float64s(v)
	s := &summary{Unit: m.unit, Better: m.better, Bound: m.bound, N: len(v), Values: v}
	if len(v) == 0 {
		return s
	}
	s.Median = quantile(v, 0.5)
	s.P25 = quantile(v, 0.25)
	s.P75 = quantile(v, 0.75)
	s.Value = s.Median
	if m.gate != 0 {
		// Nearest rank: a value some observation had, never extrapolated.
		s.Value = v[int(math.Ceil(m.gate*float64(len(v))))-1]
	}
	if n := len(v); n > 10 {
		pct := math.Floor(100 * float64(n-10) / float64(n))
		if m.better == "higher" {
			s.TailPct, s.Tail = 100-pct, quantile(v, 1-pct/100)
		} else {
			s.TailPct, s.Tail = pct, quantile(v, pct/100)
		}
	}
	return s
}

// quantile interpolates sorted values the way Python's statistics.quantiles
// does by default (the "exclusive" method), so the benchmark's quartiles
// match a reader's own.
func quantile(v []float64, p float64) float64 {
	n := len(v)
	if n == 1 {
		return v[0]
	}
	h := p * float64(n+1)
	j := int(math.Floor(h))
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	return v[j-1] + (h-float64(j))*(v[j]-v[j-1])
}

// spread is the interquartile distance as a share of the median.
func (s *summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}
