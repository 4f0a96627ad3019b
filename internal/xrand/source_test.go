package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// streamSeeds are seeds of every kind math/rand's seeding folds: zero
// (replaced by a fixed constant), negative, and beyond int32 (reduced
// mod 2³¹-1).
var streamSeeds = []int64{0, 1, -3, 42, 1 << 45, -1 << 50, math.MaxInt64, math.MinInt64}

// TestStreamMatchesMathRand holds every method the repository draws
// through to rand.New(rand.NewSource(seed)), on interleaved calls so
// that each sees the register at many positions and across its wrap.
func TestStreamMatchesMathRand(t *testing.T) {
	const draws = 100_000
	bigN := int(^uint(0) >> 2) // past 2³¹ on 64-bit ints: the Int63n path
	for _, seed := range streamSeeds {
		got, want := New(seed), rand.New(rand.NewSource(seed))
		ref := &RNG{r: want} // Norm over math/rand's own source
		for i := 0; i < draws; i++ {
			switch i % 7 {
			case 0:
				if g, w := got.Uint64(), want.Uint64(); g != w {
					t.Fatalf("seed %d draw %d: Uint64 %d, math/rand %d", seed, i, g, w)
				}
			case 1:
				if g, w := got.Float64(), want.Float64(); g != w {
					t.Fatalf("seed %d draw %d: Float64 %v, math/rand %v", seed, i, g, w)
				}
			case 2:
				if g, w := got.Float32(), want.Float32(); g != w {
					t.Fatalf("seed %d draw %d: Float32 %v, math/rand %v", seed, i, g, w)
				}
			case 3:
				n := []int{1, 7, 1000, 1<<31 - 1, bigN}[i/7%5]
				if g, w := got.Intn(n), want.Intn(n); g != w {
					t.Fatalf("seed %d draw %d: Intn(%d) %d, math/rand %d", seed, i, n, g, w)
				}
			case 4:
				if g, w := got.Norm(), ref.Norm(); g != w {
					t.Fatalf("seed %d draw %d: Norm %v, math/rand %v", seed, i, g, w)
				}
			case 5:
				if g, w := got.Exp(2), want.ExpFloat64()/2; g != w {
					t.Fatalf("seed %d draw %d: Exp %v, math/rand %v", seed, i, g, w)
				}
			case 6:
				var gs, ws [9]int
				for k := range gs {
					gs[k], ws[k] = k, k
				}
				got.Shuffle(len(gs), func(a, b int) { gs[a], gs[b] = gs[b], gs[a] })
				want.Shuffle(len(ws), func(a, b int) { ws[a], ws[b] = ws[b], ws[a] })
				if gs != ws {
					t.Fatalf("seed %d draw %d: Shuffle %v, math/rand %v", seed, i, gs, ws)
				}
			}
		}
		child, wantChild := got.Split(), rand.New(rand.NewSource(int64(want.Uint64())))
		for i := 0; i < 2*regLen; i++ {
			if g, w := child.Uint64(), wantChild.Uint64(); g != w {
				t.Fatalf("seed %d: Split child draw %d: %d, math/rand %d", seed, i, g, w)
			}
		}
	}
}

// uniformLoop is the per-value loop FillUniform replaces.
func uniformLoop(dst []float32, bound float32, g *RNG) {
	for i := range dst {
		dst[i] = (2*g.Float32() - 1) * bound
	}
}

// checkFill fills n values from two RNGs seeded alike, one by
// FillUniform and one by the loop, after skip draws on each, and
// requires the same bits and the same stream position afterwards.
func checkFill(t testing.TB, seed int64, skip, n int, bound float32) {
	t.Helper()
	got, want := New(seed), New(seed)
	for i := 0; i < skip; i++ {
		got.Uint64()
		want.Uint64()
	}
	g, w := make([]float32, n), make([]float32, n)
	got.FillUniform(g, bound)
	uniformLoop(w, bound, want)
	for i := range g {
		if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
			t.Fatalf("seed %d skip %d n %d bound %v: value %d is %v, loop gives %v", seed, skip, n, bound, i, g[i], w[i])
		}
	}
	if a, b := got.Uint64(), want.Uint64(); a != b {
		t.Fatalf("seed %d skip %d n %d: stream after the fill %d, after the loop %d", seed, skip, n, a, b)
	}
}

// TestFillUniformMatchesLoop covers fills shorter than the register, one
// that ends on its wrap, ones that cross it several times, and fills
// that start mid-register.
func TestFillUniformMatchesLoop(t *testing.T) {
	for _, seed := range streamSeeds {
		for _, skip := range []int{0, 1, regTap, regLen - 1} {
			for _, n := range []int{0, 1, regTap, regLen - 1, regLen, regLen + 1, 5*regLen + 3} {
				checkFill(t, seed, skip, n, 0.25)
			}
		}
	}
	checkFill(t, 7, 0, 1<<20, float32(math.Sqrt(6.0/96)))
}

// TestFillUniformRedraws plants the register words the next draw adds so
// that its value rounds to 1, once in float64 (the Float64 redraw) and
// once only in float32 (the Float32 redraw), and requires the fill to
// skip that word as rand.Rand does.
func TestFillUniformRedraws(t *testing.T) {
	for _, word := range []int64{
		regMask,            // float64(2⁶³-1) = 2⁶³: Float64 sees 1
		1<<63 - 1<<37 + 17, // 1-2⁻²⁶ in float64, 1 in float32
	} {
		planted := newSource(5)
		tap, feed := planted.tap-1, planted.feed-1
		if tap < 0 {
			tap += regLen
		}
		if feed < 0 {
			feed += regLen
		}
		planted.vec[feed], planted.vec[tap] = word, 0

		fill, loop := *planted, *planted
		wantRand := rand.New(&loop)
		var g [3]float32
		fill.fillUniform(g[:], 1)
		for i, v := range g {
			if w := 2*wantRand.Float32() - 1; math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("word %#x: value %d is %v, rand.Rand gives %v", word, i, v, w)
			}
		}
		if g[0] == 1 {
			t.Fatalf("word %#x: the fill kept the draw that rounds to 1", word)
		}
		if fill.feed != loop.feed || fill.tap != loop.tap || fill.vec != loop.vec {
			t.Fatalf("word %#x: the fill left the register elsewhere than rand.Rand", word)
		}
		// Four words for three values: exactly one redraw.
		if want := (planted.feed - 4 + regLen) % regLen; fill.feed != want {
			t.Fatalf("word %#x: feed %d after three values, want %d (one redraw)", word, fill.feed, want)
		}
	}
}

// FuzzUniformFill holds FillUniform to the per-value loop on fuzzed
// seeds, lengths and bounds, bit for bit and in stream position.
func FuzzUniformFill(f *testing.F) {
	f.Add(int64(0), uint16(0), float32(1))
	f.Add(int64(-3), uint16(regLen), float32(0.05))
	f.Add(int64(1<<45), uint16(3*regLen+1), float32(-2))
	f.Add(int64(math.MinInt64), uint16(1), float32(math.Inf(1)))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, bound float32) {
		checkFill(t, seed, int(n)%regLen, int(n), bound)
	})
}

func BenchmarkFillUniform(b *testing.B) {
	dst := make([]float32, 1<<16)
	g := New(1)
	b.SetBytes(int64(4 * len(dst)))
	for b.Loop() {
		g.FillUniform(dst, 0.05)
	}
}

func BenchmarkUniformLoop(b *testing.B) {
	dst := make([]float32, 1<<16)
	g := New(1)
	b.SetBytes(int64(4 * len(dst)))
	for b.Loop() {
		uniformLoop(dst, 0.05, g)
	}
}
