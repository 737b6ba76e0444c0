package main

import (
	"fmt"
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, or 0 for an empty slice. xs need not be sorted.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailPercentiles are the candidates for the tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile with at least
// ten samples beyond it among n samples — p99 needs 1000 — so the tail
// is never read off a handful of outliers. Below 20 samples no candidate
// qualifies and the tail is the maximum (percentile 100).
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 100
}

// tail returns the tail latency of xs and its label, e.g. "p99".
func tail(xs []float64) (float64, string) {
	p := tailPercentile(len(xs))
	if p == 100 {
		return slices.Max(append([]float64{0}, xs...)), "max"
	}
	return percentile(xs, p), fmt.Sprintf("p%g", p)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
