package main

import (
	"math"
	"sort"
)

// metric is one reported number: the value, its unit, how many samples
// stand behind it, and for a median its spread — the half-width of the
// median's ~95% interval as a share of the median (the boxplot-notch
// estimate 1.57·IQR/√n of McGill, Tukey and Larsen, 1978). Zero spread
// means the value is a count or ratio that repeats exactly.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`
	Spread float64 `json:"spread,omitempty"`
}

// medianMetric summarizes samples by their median, scaled into the unit.
func medianMetric(samples []float64, scale float64, unit string) metric {
	m := metric{Value: median(samples) * scale, Unit: unit, N: len(samples)}
	if len(samples) >= 2 && m.Value != 0 {
		q := quartiles(samples)
		m.Spread = 1.57 * (q[2] - q[0]) * scale / math.Sqrt(float64(len(samples))) / math.Abs(m.Value)
	}
	return m
}

// exact reports a value that is computed, not sampled.
func exact(v float64, unit string) metric { return metric{Value: v, Unit: unit} }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs (at least two samples)
// by the same rule as Python's statistics.quantiles(xs, n=4), the
// default "exclusive" method.
func quartiles(xs []float64) [3]float64 {
	s := sorted(xs)
	n := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer with no work to report on).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
