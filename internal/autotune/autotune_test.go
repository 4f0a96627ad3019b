package autotune

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func space2d() Space {
	return Space{
		{Name: "x", Lo: -5, Hi: 5},
		{Name: "lr", Lo: 1e-4, Hi: 1, Log: true},
	}
}

// bowl has its optimum at x=2, lr=0.01.
func bowl(x []float64) float64 {
	dx := x[0] - 2
	dl := math.Log10(x[1]) - math.Log10(0.01)
	return dx*dx + dl*dl
}

// randomSearch samples the space uniformly: the baseline the Bayesian
// tuner has to beat.
type randomSearch struct {
	space Space
	rng   *xrand.RNG
}

func newRandomSearch(space Space, seed int64) *randomSearch {
	return &randomSearch{space: space, rng: xrand.New(seed)}
}

func (r *randomSearch) Suggest() []float64         { return r.space.sample(r.rng) }
func (r *randomSearch) Observe([]float64, float64) {}

func TestSpaceValidate(t *testing.T) {
	if err := (Space{}).Validate(); err == nil {
		t.Error("empty space accepted")
	}
	if err := (Space{{Name: "a", Lo: 1, Hi: 1}}).Validate(); err == nil {
		t.Error("empty range accepted")
	}
	if err := (Space{{Name: "a", Lo: -1, Hi: 1, Log: true}}).Validate(); err == nil {
		t.Error("non-positive log bound accepted")
	}
	if err := space2d().Validate(); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
}

func TestRandomSearchInBounds(t *testing.T) {
	r := newRandomSearch(space2d(), 1)
	for i := 0; i < 200; i++ {
		x := r.Suggest()
		if x[0] < -5 || x[0] > 5 || x[1] < 1e-4 || x[1] > 1 {
			t.Fatalf("out-of-bounds suggestion %v", x)
		}
	}
}

func TestMinimizeWithRandom(t *testing.T) {
	r := newRandomSearch(space2d(), 2)
	x, y := Minimize(r, bowl, 300)
	if y > 1.0 {
		t.Errorf("random search best %v at %v; expected < 1.0", y, x)
	}
}

func TestBayesianBeatsRandomOnBudget(t *testing.T) {
	// With a modest budget the surrogate should find a better optimum
	// than random search (averaged over seeds to avoid flakes).
	budget := 60
	var bayesWins int
	for seed := int64(0); seed < 5; seed++ {
		b, _ := NewBayesian(space2d(), seed)
		_, by := Minimize(b, bowl, budget)
		r := newRandomSearch(space2d(), seed+100)
		_, ry := Minimize(r, bowl, budget)
		if by <= ry {
			bayesWins++
		}
	}
	if bayesWins < 3 {
		t.Errorf("Bayesian won only %d/5 seeds against random", bayesWins)
	}
}

func TestBayesianConverges(t *testing.T) {
	b, _ := NewBayesian(space2d(), 3)
	x, y := Minimize(b, bowl, 120)
	if y > 0.5 {
		t.Errorf("Bayesian best %v at %v; expected near optimum", y, x)
	}
	if math.Abs(x[0]-2) > 1.5 {
		t.Errorf("x* = %v, want near 2", x[0])
	}
}

func TestBayesianPredictFallback(t *testing.T) {
	b, _ := NewBayesian(space2d(), 4)
	b.Observe([]float64{0, 0.01}, 5)
	b.Observe([]float64{1, 0.01}, 3)
	mu, sigma := b.predict([]float64{4.9, 0.9})
	if math.IsNaN(mu) || math.IsNaN(sigma) {
		t.Error("prediction must not be NaN far from data")
	}
	if sigma <= 0 {
		t.Error("uncertainty must be positive away from observations")
	}
}

func TestObserveCopiesPoint(t *testing.T) {
	b, _ := NewBayesian(space2d(), 5)
	x := []float64{1, 0.1}
	b.Observe(x, 1)
	x[0] = 99
	if b.obs[0].X[0] == 99 {
		t.Error("Observe must copy the point")
	}
}

func TestConstructorsRejectBadSpace(t *testing.T) {
	if _, err := NewBayesian(Space{}, 0); err == nil {
		t.Error("bayes: empty space accepted")
	}
}
