// Package metrics provides the statistical tooling the characterization
// experiments need: summary statistics, histograms, kernel density
// estimates (the KDE curves of Fig 7), power-law fits for access
// distributions, and plain-text renderers (bar charts, heatmaps, aligned
// tables) so every figure of the paper can be regenerated on a terminal.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual moments and order statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
	P25, P50  float64
	p         []float64
}

// Summarize computes summary statistics of xs. It copies and sorts the
// input.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		s.Mean, s.Std = math.NaN(), math.NaN()
		s.Min, s.Max = math.NaN(), math.NaN()
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.p = sorted
	s.Min, s.Max = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.Mean = sum / float64(len(sorted))
	var sq float64
	for _, v := range sorted {
		d := v - s.Mean
		sq += d * d
	}
	s.Std = math.Sqrt(sq / float64(len(sorted)))
	s.P25 = s.Quantile(0.25)
	s.P50 = s.Quantile(0.50)
	return s
}

// Quantile returns the q-quantile (0..1) by linear interpolation.
func (s Summary) Quantile(q float64) float64 {
	if len(s.p) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.p[0]
	}
	if q >= 1 {
		return s.p[len(s.p)-1]
	}
	pos := q * float64(len(s.p)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s.p) {
		return s.p[lo]
	}
	return s.p[lo]*(1-frac) + s.p[lo+1]*frac
}

// String renders a one-line summary.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3g std=%.3g min=%.3g p50=%.3g max=%.3g",
		s.N, s.Mean, s.Std, s.Min, s.P50, s.Max)
}

// Histogram is a fixed-width binned counter over [Lo, Hi).
type Histogram struct {
	Lo, Hi float64
	Counts []int
	total  int
}

// NewHistogram creates a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) *Histogram {
	if hi <= lo || n <= 0 {
		panic(fmt.Sprintf("metrics: bad histogram [%v,%v) x%d", lo, hi, n))
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}
}

// Add records a value. An out-of-range value falls in no bin but counts
// toward the total that Fractions divides by.
func (h *Histogram) Add(v float64) {
	h.total++
	if v < h.Lo || v >= h.Hi {
		return
	}
	i := int((v - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i == len(h.Counts) { // float edge
		i--
	}
	h.Counts[i]++
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Fractions returns each bin's share of the total (0 if empty).
func (h *Histogram) Fractions() []float64 {
	f := make([]float64, len(h.Counts))
	if h.total == 0 {
		return f
	}
	for i, c := range h.Counts {
		f[i] = float64(c) / float64(h.total)
	}
	return f
}

// KDE evaluates a Gaussian kernel density estimate of xs at the points
// grid, using Silverman's rule of thumb when bandwidth <= 0.
func KDE(xs []float64, grid []float64, bandwidth float64) []float64 {
	out := make([]float64, len(grid))
	if len(xs) == 0 {
		return out
	}
	if bandwidth <= 0 {
		s := Summarize(xs)
		iqr := s.Quantile(0.75) - s.Quantile(0.25)
		sigma := s.Std
		a := sigma
		if iqr > 0 && iqr/1.34 < a {
			a = iqr / 1.34
		}
		if a <= 0 {
			a = 1e-3
		}
		bandwidth = 0.9 * a * math.Pow(float64(len(xs)), -0.2)
	}
	norm := 1 / (float64(len(xs)) * bandwidth * math.Sqrt(2*math.Pi))
	for i, g := range grid {
		var sum float64
		for _, x := range xs {
			u := (g - x) / bandwidth
			sum += math.Exp(-0.5 * u * u)
		}
		out[i] = sum * norm
	}
	return out
}

// Linspace returns n evenly spaced points covering [lo, hi].
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	return out
}

// FitPowerLaw fits frequency ~ C · rank^(-alpha) to the positive counts in
// freq (unsorted) via least squares in log-log space, returning alpha.
// The paper observes that per-table access frequencies resemble a power
// law (§III-A2); this fit quantifies the skew of generated workloads.
func FitPowerLaw(freq []float64) (alpha float64, ok bool) {
	vals := make([]float64, 0, len(freq))
	for _, v := range freq {
		if v > 0 {
			vals = append(vals, v)
		}
	}
	if len(vals) < 3 {
		return 0, false
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	// Regress log f on log rank.
	var sx, sy, sxx, sxy float64
	n := float64(len(vals))
	for i, v := range vals {
		x := math.Log(float64(i + 1))
		y := math.Log(v)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, false
	}
	slope := (n*sxy - sx*sy) / den
	return -slope, true
}
