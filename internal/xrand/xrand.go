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
// helpers used by the workload generators. It is NOT safe for concurrent
// use; create one RNG per goroutine (see Split).
type RNG struct {
	r *rand.Rand
	// cached second normal variate from Box-Muller
	normCached bool
	normValue  float64
}

// New returns a deterministic RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives a new independent RNG from this one. The derived stream is
// a deterministic function of the parent's current state, so a parent
// seeded identically always yields the same family of children.
func (g *RNG) Split() *RNG {
	return New(int64(g.r.Uint64()))
}

// Uint64 returns a uniformly distributed 64-bit value.
func (g *RNG) Uint64() uint64 { return g.r.Uint64() }

// Int63 returns a non-negative 63-bit value.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Float32 returns a uniform float32 in [0, 1).
func (g *RNG) Float32() float32 { return g.r.Float32() }

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

// Zipf returns a sampler of Zipf-distributed values in [0, imax] with
// exponent s > 1. It wraps math/rand's rejection-inversion implementation.
func (g *RNG) Zipf(s float64, imax uint64) *rand.Zipf {
	return rand.NewZipf(g.r, s, 1, imax)
}

// BoundedZipf samples integers in [1, max] following an approximate Zipf
// law with exponent alpha via a precomputed inverse CDF. Use for small max
// (e.g. per-feature multi-hot lengths truncated at 32).
type BoundedZipf struct {
	cdf []float64
	g   *RNG
}

// NewBoundedZipf builds the sampler. Values range over [1, max].
func NewBoundedZipf(g *RNG, alpha float64, max int) *BoundedZipf {
	if max < 1 {
		panic("xrand: BoundedZipf max must be >= 1")
	}
	cdf := make([]float64, max)
	sum := 0.0
	for k := 1; k <= max; k++ {
		sum += 1 / math.Pow(float64(k), alpha)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &BoundedZipf{cdf: cdf, g: g}
}

// Sample draws one value in [1, len(cdf)].
func (z *BoundedZipf) Sample() int {
	u := z.g.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Mean returns the expected value of the sampler's distribution.
func (z *BoundedZipf) Mean() float64 {
	m := 0.0
	prev := 0.0
	for i, c := range z.cdf {
		m += float64(i+1) * (c - prev)
		prev = c
	}
	return m
}

// Perm returns a random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (g *RNG) Shuffle(n int, swap func(i, j int)) { g.r.Shuffle(n, swap) }
