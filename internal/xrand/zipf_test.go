package xrand

import (
	"math"
	"testing"
)

// zipfShapes are (s, n) pairs the repository draws: bag lengths at the
// generator's and the workload zoo's exponents, and row ids over a
// small and a sparse_heavy-sized table.
var zipfShapes = []struct {
	s float64
	n int
}{{1.1, 32}, {1.05, 64}, {1.2, 200}, {1.2, 200_000}}

// searchCDF is the binary search the guide table replaces: the first
// index whose cdf is at least u (the last index if none is).
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// boundedCDF is the cdf the bag-length sampler has always searched:
// running sums of 1/k^s, each divided by the total.
func boundedCDF(s float64, n int) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// TestZipfMatchesBinarySearch holds Draw to the binary search over the
// same cdf, draw for draw on one stream: the length stream the
// generator drew before the guide table, bit for bit.
func TestZipfMatchesBinarySearch(t *testing.T) {
	draws := 1_000_000
	if testing.Short() {
		draws = 50_000
	}
	for _, sh := range zipfShapes {
		z, cdf := NewZipf(sh.s, sh.n), boundedCDF(sh.s, sh.n)
		for i, c := range cdf {
			if z.cdf[i] != c {
				t.Fatalf("Zipf(%v, %d): cdf[%d] = %v, want %v", sh.s, sh.n, i, z.cdf[i], c)
			}
		}
		got, want := New(3), New(3)
		for i := 0; i < draws; i++ {
			if g, w := z.Draw(got), searchCDF(cdf, want.Float64())+1; g != w {
				t.Fatalf("Zipf(%v, %d) draw %d: %d, binary search %d", sh.s, sh.n, i, g, w)
			}
		}
	}
}

// TestZipfBucketEdges tries u at every guide bucket's edge, g/n, and
// just below it, where u*n may round up into bucket g. The last table
// puts a cdf entry on such a u: Nextafter(0.9, 0)*10 rounds to 9, so a
// guide that started bucket 9 at the first cdf >= 0.9 would skip it.
func TestZipfBucketEdges(t *testing.T) {
	var zs []*Zipf
	for _, sh := range zipfShapes {
		zs = append(zs, NewZipf(sh.s, sh.n))
	}
	below := math.Nextafter(0.9, 0)
	zs = append(zs, zipfOver([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, below, 1}))
	for _, z := range zs {
		n := len(z.cdf)
		for g := 0; g < n; g++ {
			edge := float64(g) / float64(n)
			for _, u := range []float64{edge, math.Nextafter(edge, 0)} {
				if got, want := z.index(u), searchCDF(z.cdf, u); got != want {
					t.Fatalf("n=%d u=%v: index %d, binary search %d", n, u, got, want)
				}
			}
		}
	}
}

// TestZipfFrequencies counts draws at a fixed seed and bounds their
// chi-square distance from k^-s. The statistic has n-1 degrees of
// freedom (mean n-1, sd sqrt(2(n-1))); a sampler off the law by one
// rank lands orders of magnitude above the bound.
func TestZipfFrequencies(t *testing.T) {
	const s, n, draws = 1.1, 100, 400_000
	z, g := NewZipf(s, n), New(11)
	counts := make([]float64, n+1)
	for i := 0; i < draws; i++ {
		counts[z.Draw(g)]++
	}
	var h float64
	for k := 1; k <= n; k++ {
		h += math.Pow(float64(k), -s)
	}
	var chi2 float64
	for k := 1; k <= n; k++ {
		want := draws * math.Pow(float64(k), -s) / h
		chi2 += (counts[k] - want) * (counts[k] - want) / want
	}
	if df := float64(n - 1); chi2 > df+5*math.Sqrt(2*df) {
		t.Errorf("chi-square %.1f over %d degrees of freedom", chi2, n-1)
	}
}

func TestZipfRange(t *testing.T) {
	g := New(6)
	z := NewZipf(1.2, 32)
	counts := make([]int, 33)
	for i := 0; i < 50000; i++ {
		v := z.Draw(g)
		if v < 1 || v > 32 {
			t.Fatalf("sample %d out of [1,32]", v)
		}
		counts[v]++
	}
	// Zipf must be monotone decreasing-ish: rank 1 most common.
	if counts[1] <= counts[2] || counts[1] <= counts[10] {
		t.Errorf("expected rank-1 dominance, counts[1]=%d counts[2]=%d counts[10]=%d",
			counts[1], counts[2], counts[10])
	}
}

func TestZipfMeanMatchesEmpirical(t *testing.T) {
	g := New(7)
	z := NewZipf(1.1, 32)
	want := z.Mean()
	n := 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += float64(z.Draw(g))
	}
	got := sum / float64(n)
	if math.Abs(got-want) > 0.1 {
		t.Errorf("empirical mean %v, analytic mean %v", got, want)
	}
}

func TestZipfPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n < 1")
		}
	}()
	NewZipf(1.1, 0)
}

func TestZipfSkew(t *testing.T) {
	g := New(9)
	z := NewZipf(1.5, 1_000_001)
	small := 0
	for i := 0; i < 10000; i++ {
		if z.Draw(g) <= 10 {
			small++
		}
	}
	if small < 5000 {
		t.Errorf("Zipf(1.5) should concentrate on small values; got %d/10000 at or below 10", small)
	}
}

// FuzzZipf draws from a fuzzed (s, n) and requires every value in
// [1, n] and equal to the binary search's on the same u.
func FuzzZipf(f *testing.F) {
	for _, sh := range zipfShapes {
		f.Add(sh.s, uint16(sh.n), int64(sh.n))
	}
	f.Add(0.0, uint16(1), int64(0))
	f.Add(-2.5, uint16(4095), int64(-7))
	f.Add(40.0, uint16(3), int64(1))
	f.Fuzz(func(t *testing.T, s float64, n16 uint16, seed int64) {
		n := int(n16)%4096 + 1
		z := NewZipf(s, n)
		got, want := New(seed), New(seed)
		for i := 0; i < 2000; i++ {
			v, w := z.Draw(got), searchCDF(z.cdf, want.Float64())+1
			if v < 1 || v > n || v != w {
				t.Fatalf("Zipf(%v, %d) draw %d: %d, binary search %d", s, n, i, v, w)
			}
		}
	})
}
