// Package autotune implements the Bayesian hyper-parameter search of the
// paper's FBLearner workflow (§VI-C): an RBF-kernel surrogate with a
// lower-confidence-bound acquisition — enough to reproduce the paper's
// finding that automated re-tuning recovers (and slightly improves) model
// quality after porting to large-batch GPU training.
package autotune

import (
	"fmt"
	"math"

	"repro/internal/xrand"
)

// Param is one search dimension.
type Param struct {
	Name string
	Lo   float64
	Hi   float64
	// Log searches the dimension in log space (learning rates).
	Log bool
}

// Space is an ordered set of search dimensions.
type Space []Param

// Validate checks bounds.
func (s Space) Validate() error {
	if len(s) == 0 {
		return fmt.Errorf("autotune: empty search space")
	}
	for _, p := range s {
		if !(p.Hi > p.Lo) {
			return fmt.Errorf("autotune: param %s has empty range [%v, %v]", p.Name, p.Lo, p.Hi)
		}
		if p.Log && p.Lo <= 0 {
			return fmt.Errorf("autotune: log param %s requires positive bounds", p.Name)
		}
	}
	return nil
}

// sample draws a uniform point (in the parameterization of each axis).
func (s Space) sample(rng *xrand.RNG) []float64 {
	x := make([]float64, len(s))
	for i, p := range s {
		u := rng.Float64()
		if p.Log {
			x[i] = p.Lo * math.Exp(u*math.Log(p.Hi/p.Lo))
		} else {
			x[i] = p.Lo + u*(p.Hi-p.Lo)
		}
	}
	return x
}

// normalize maps a point into the unit cube for distance computations.
func (s Space) normalize(x []float64) []float64 {
	u := make([]float64, len(s))
	for i, p := range s {
		if p.Log {
			u[i] = math.Log(x[i]/p.Lo) / math.Log(p.Hi/p.Lo)
		} else {
			u[i] = (x[i] - p.Lo) / (p.Hi - p.Lo)
		}
	}
	return u
}

// Observation is one evaluated point.
type Observation struct {
	X []float64
	Y float64 // objective value; tuners minimize
}

// Tuner proposes points and ingests results.
type Tuner interface {
	// Suggest returns the next point to evaluate.
	Suggest() []float64
	// Observe reports the objective at x.
	Observe(x []float64, y float64)
}

// Bayesian is a surrogate-based tuner: an RBF-kernel regressor over past
// observations scores random candidates by a lower confidence bound
// mu - kappa*sigma, where sigma grows with distance from observed points.
type Bayesian struct {
	space      Space
	rng        *xrand.RNG
	obs        []Observation
	Kappa      float64 // exploration weight
	Bandwidth  float64 // RBF kernel width in unit-cube distance
	Candidates int     // candidates scored per suggestion
	warmup     int
}

// NewBayesian builds a Bayesian tuner with sensible defaults.
func NewBayesian(space Space, seed int64) (*Bayesian, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	return &Bayesian{
		space:      space,
		rng:        xrand.New(seed),
		Kappa:      1.5,
		Bandwidth:  0.2,
		Candidates: 256,
		warmup:     5,
	}, nil
}

// Suggest implements Tuner: random during warmup, then LCB optimization.
func (b *Bayesian) Suggest() []float64 {
	if len(b.obs) < b.warmup {
		return b.space.sample(b.rng)
	}
	var best []float64
	bestScore := math.Inf(1)
	for c := 0; c < b.Candidates; c++ {
		x := b.space.sample(b.rng)
		mu, sigma := b.predict(x)
		score := mu - b.Kappa*sigma
		if score < bestScore {
			bestScore = score
			best = x
		}
	}
	return best
}

// predict returns the kernel-regression mean and a distance-based
// uncertainty at x.
func (b *Bayesian) predict(x []float64) (mu, sigma float64) {
	u := b.space.normalize(x)
	var wsum, ysum, dmin float64
	dmin = math.Inf(1)
	for _, o := range b.obs {
		v := b.space.normalize(o.X)
		var d2 float64
		for i := range u {
			d := u[i] - v[i]
			d2 += d * d
		}
		w := math.Exp(-d2 / (2 * b.Bandwidth * b.Bandwidth))
		wsum += w
		ysum += w * o.Y
		if d := math.Sqrt(d2); d < dmin {
			dmin = d
		}
	}
	if wsum < 1e-12 {
		// Far from everything: fall back to the observed mean with
		// high uncertainty.
		var m float64
		for _, o := range b.obs {
			m += o.Y
		}
		return m / float64(len(b.obs)), b.spread()
	}
	mu = ysum / wsum
	sigma = b.spread() * math.Min(1, dmin/b.Bandwidth)
	return mu, sigma
}

// spread estimates the objective's scale from observations.
func (b *Bayesian) spread() float64 {
	if len(b.obs) < 2 {
		return 1
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, o := range b.obs {
		lo = math.Min(lo, o.Y)
		hi = math.Max(hi, o.Y)
	}
	if hi <= lo {
		return 1e-6
	}
	return hi - lo
}

// Observe implements Tuner.
func (b *Bayesian) Observe(x []float64, y float64) {
	b.obs = append(b.obs, Observation{X: append([]float64(nil), x...), Y: y})
}

// Minimize runs the tuner for budget evaluations of f and returns the
// best point found.
func Minimize(t Tuner, f func([]float64) float64, budget int) (bestX []float64, bestY float64) {
	bestY = math.Inf(1)
	for i := 0; i < budget; i++ {
		x := t.Suggest()
		y := f(x)
		t.Observe(x, y)
		if y < bestY {
			bestY = y
			bestX = append([]float64(nil), x...)
		}
	}
	return bestX, bestY
}
