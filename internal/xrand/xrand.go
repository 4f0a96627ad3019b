// Package xrand provides deterministic, seedable random number generation
// helpers shared across the simulator and the training stack.
//
// Every stochastic component in this repository (data synthesis, model
// initialization, discrete-event jitter, fleet sampling) draws from an
// explicitly seeded xrand.RNG so that experiments are reproducible run to
// run.
package xrand

import (
	"math"
	"math/rand"
)

// RNG is a convenience wrapper around math/rand.Rand with distribution
// helpers used by the workload generators. Its stream is math/rand's,
// draw for draw: the generator state lives in src (see source), and r is
// a rand.Rand over that same state for the samplers math/rand already
// implements. It is NOT safe for concurrent use; create one RNG per
// goroutine (see Split).
type RNG struct {
	src *source
	r   *rand.Rand
	// cached second normal variate from Box-Muller
	normCached bool
	normValue  float64
}

// New returns a deterministic RNG seeded with seed. Its stream equals
// rand.New(rand.NewSource(seed))'s.
func New(seed int64) *RNG {
	src := newSource(seed)
	return &RNG{src: src, r: rand.New(src)}
}

// Split derives a new independent RNG from this one. The derived stream is
// a deterministic function of the parent's current state, so a parent
// seeded identically always yields the same family of children.
func (g *RNG) Split() *RNG {
	return New(int64(g.r.Uint64()))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1): math/rand's Float64,
// computed on src without its call through the rand.Source interface.
func (g *RNG) Float64() float64 {
	for {
		// A draw of 2⁶³−2⁹ or more rounds up to 1 (once in 2⁵⁴);
		// math/rand draws again then, and so must the stream.
		if f := float64(g.src.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Float32 returns a uniform float32 in [0, 1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

// FillUniform fills dst with uniform values in [-bound, bound], each
// (2*Float32()-1)*bound: the same values and the same stream advance as
// that loop, drawn without a call per value.
func (g *RNG) FillUniform(dst []float32, bound float32) {
	g.src.fillUniform(dst, bound)
}

// Norm returns a standard normal variate (Box-Muller, cached pairs).
func (g *RNG) Norm() float64 {
	if g.normCached {
		g.normCached = false
		return g.normValue
	}
	var u, v, s float64
	for {
		u = 2*g.r.Float64() - 1
		v = 2*g.r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	g.normValue = v * f
	g.normCached = true
	return u * f
}

// NormMS returns a normal variate with the given mean and standard
// deviation.
func (g *RNG) NormMS(mean, std float64) float64 { return mean + std*g.Norm() }

// LogNormal returns exp(N(mu, sigma)). Embedding table hash sizes in
// production are well described by a log-normal spread around the model
// mean (Fig 6 of the paper spans 30 .. 20M with means of a few million).
func (g *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(g.NormMS(mu, sigma))
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (g *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("xrand: Exp rate must be positive")
	}
	return g.r.ExpFloat64() / rate
}

// Zipf draws integers in [1, n] with P(k) ∝ k^-s, the one law behind
// the generator's row ids and bag lengths. It is built once per (s, n)
// and is immutable, so any number of RNGs and goroutines may draw from
// one table: Draw takes the RNG.
type Zipf struct {
	// cdf[k-1] is P(K <= k), normalised so cdf[n-1] is exactly 1.
	cdf []float64
	// guide[g] is a lower bound on the index Draw returns for any u with
	// int(u*n) == g, so the search from it is a short forward scan.
	guide []int32
	mean  float64
}

// NewZipf builds the sampler's table: 12 bytes per value in [1, n]. It
// panics if n < 1.
func NewZipf(s float64, n int) *Zipf {
	if n < 1 {
		panic("xrand: Zipf n must be >= 1")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return zipfOver(cdf)
}

// zipfOver builds the sampler over a non-decreasing cdf that ends at 1.
// One pass over k fills guide[k] and adds value k+1's share of the mean.
//
// guide[k] is the first i with cdf[i]*n >= k. A u in bucket k has
// u*n >= k after rounding, and the index drawn for u, i*, has
// cdf[i*] >= u, so cdf[i*]*n >= k after rounding too (rounding is
// monotone). guide[k] is thus at or below i*, even where u*n rounded
// up to k.
func zipfOver(cdf []float64) *Zipf {
	z := &Zipf{cdf: cdf, guide: make([]int32, len(cdf))}
	i, prev := 0, 0.0
	for k, c := range cdf {
		for cdf[i]*float64(len(cdf)) < float64(k) {
			i++
		}
		z.guide[k] = int32(i)
		// The explicit conversion keeps arm64 from fusing the
		// multiply-add, so every architecture sums the same bits.
		z.mean += float64(float64(k+1) * (c - prev))
		prev = c
	}
	return z
}

// Draw returns one value in [1, n], consuming one Float64 from g.
func (z *Zipf) Draw(g *RNG) int { return z.index(g.Float64()) + 1 }

// index returns the first i with cdf[i] >= u, for u in [0, 1): the
// index a binary search over the cdf finds, reached from the guide.
func (z *Zipf) index(u float64) int {
	i := int(z.guide[int(u*float64(len(z.guide)))])
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Mean returns the expected value of a draw.
func (z *Zipf) Mean() float64 { return z.mean }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
