package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.P50 != 3 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || !math.IsNaN(s.Mean) || !math.IsNaN(s.Quantile(0.5)) {
		t.Errorf("empty summary %+v", s)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	s := Summarize([]float64{0, 10})
	if q := s.Quantile(0.5); q != 5 {
		t.Errorf("median of {0,10} = %v", q)
	}
	if q := s.Quantile(0); q != 0 {
		t.Errorf("q0 = %v", q)
	}
	if q := s.Quantile(1); q != 10 {
		t.Errorf("q1 = %v", q)
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		xs := make([]float64, 50)
		for i := range xs {
			xs[i] = rng.NormMS(0, 10)
		}
		s := Summarize(xs)
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-1)
	h.Add(11)
	if h.total != 12 {
		t.Errorf("total = %d", h.total)
	}
	for i, c := range h.Counts {
		if c != 1 {
			t.Errorf("bin %d count %d", i, c)
		}
	}
	fr := h.Fractions()
	if math.Abs(fr[0]-1.0/12) > 1e-12 {
		t.Errorf("fraction = %v", fr[0])
	}
	if c := h.BinCenter(0); c != 0.5 {
		t.Errorf("BinCenter(0) = %v", c)
	}
}

func TestHistogramEdges(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(0)        // first bin
	h.Add(0.999999) // last bin
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("edge handling: %v", h.Counts)
	}
}

func TestHistogramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, 0, 4)
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := xrand.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormMS(5, 2)
	}
	grid := Linspace(-5, 15, 400)
	dens := KDE(xs, grid, 0)
	var integral float64
	step := grid[1] - grid[0]
	for _, d := range dens {
		integral += d * step
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("KDE integral = %v, want ~1", integral)
	}
	// Peak should be near the true mean.
	best := 0
	for i, d := range dens {
		if d > dens[best] {
			best = i
		}
	}
	if math.Abs(grid[best]-5) > 1 {
		t.Errorf("KDE mode at %v, want ~5", grid[best])
	}
}

func TestKDEEmpty(t *testing.T) {
	dens := KDE(nil, Linspace(0, 1, 5), 0)
	for _, d := range dens {
		if d != 0 {
			t.Error("empty KDE should be zero")
		}
	}
}

func TestLinspace(t *testing.T) {
	g := Linspace(0, 1, 5)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	for i := range want {
		if math.Abs(g[i]-want[i]) > 1e-12 {
			t.Errorf("Linspace[%d] = %v", i, g[i])
		}
	}
	if g := Linspace(3, 9, 1); len(g) != 1 || g[0] != 3 {
		t.Errorf("Linspace n=1: %v", g)
	}
}

func TestFitPowerLawRecoversExponent(t *testing.T) {
	// freq(rank) = 1000 * rank^-1.5
	freq := make([]float64, 100)
	for i := range freq {
		freq[i] = 1000 * math.Pow(float64(i+1), -1.5)
	}
	alpha, ok := FitPowerLaw(freq)
	if !ok {
		t.Fatal("fit failed")
	}
	if math.Abs(alpha-1.5) > 0.01 {
		t.Errorf("alpha = %v, want 1.5", alpha)
	}
}

func TestFitPowerLawDegenerate(t *testing.T) {
	if _, ok := FitPowerLaw([]float64{1, 0}); ok {
		t.Error("fit should fail with < 3 positive points")
	}
}
