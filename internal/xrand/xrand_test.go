package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split streams look correlated: %d/100 equal draws", same)
	}
}

func TestSplitDeterminism(t *testing.T) {
	a := New(9).Split()
	b := New(9).Split()
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Split is not a deterministic function of the parent seed")
		}
	}
}

func TestNormMoments(t *testing.T) {
	g := New(1)
	n := 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := g.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestNormMS(t *testing.T) {
	g := New(2)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.NormMS(5, 2)
	}
	if mean := sum / float64(n); math.Abs(mean-5) > 0.05 {
		t.Errorf("NormMS mean = %v, want ~5", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	g := New(3)
	for i := 0; i < 10000; i++ {
		if v := g.LogNormal(2, 1.5); v <= 0 {
			t.Fatalf("LogNormal produced non-positive value %v", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	g := New(4)
	n := 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += g.Exp(4)
	}
	if mean := sum / float64(n); math.Abs(mean-0.25) > 0.01 {
		t.Errorf("Exp(4) mean = %v, want ~0.25", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive rate")
		}
	}()
	New(5).Exp(0)
}

func TestFloat32Range(t *testing.T) {
	f := func(seed int64) bool {
		g := New(seed)
		for i := 0; i < 100; i++ {
			v := g.Float32()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
