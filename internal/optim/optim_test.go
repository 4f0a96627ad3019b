package optim

import (
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// quadratic builds params for f(x) = ||x - target||² with its gradient.
func quadraticGrad(x, target []float32, grad []float32) {
	for i := range x {
		grad[i] = 2 * (x[i] - target[i])
	}
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	x := []float32{5, -3, 2}
	target := []float32{1, 1, 1}
	g := make([]float32, 3)
	p := []nn.Param{{Name: "x", Value: x, Grad: g}}
	opt := NewSGD(p, 0.1)
	for i := 0; i < 200; i++ {
		quadraticGrad(x, target, g)
		opt.Step()
	}
	for i := range x {
		if math.Abs(float64(x[i]-target[i])) > 1e-3 {
			t.Fatalf("x[%d] = %v, want ~%v", i, x[i], target[i])
		}
	}
}

func TestAdagradConvergesOnQuadratic(t *testing.T) {
	x := []float32{5, -3, 2}
	target := []float32{1, 1, 1}
	g := make([]float32, 3)
	p := []nn.Param{{Name: "x", Value: x, Grad: g}}
	opt := NewAdagrad(p, 0.9)
	for i := 0; i < 2000; i++ {
		quadraticGrad(x, target, g)
		opt.Step()
	}
	for i := range x {
		if math.Abs(float64(x[i]-target[i])) > 0.05 {
			t.Fatalf("x[%d] = %v, want ~%v", i, x[i], target[i])
		}
	}
}

func TestSGDZeroGradIsIdentity(t *testing.T) {
	x := []float32{1, 2, 3}
	g := make([]float32, 3)
	opt := NewSGD([]nn.Param{{Value: x, Grad: g}}, 0.5)
	opt.Step()
	if x[0] != 1 || x[1] != 2 || x[2] != 3 {
		t.Error("zero gradient must not move parameters")
	}
}

func TestAdagradAdaptsStepSize(t *testing.T) {
	// With constant gradient 1, AdaGrad step at iteration k is
	// lr/sqrt(k+1): strictly decreasing.
	x := []float32{0}
	g := []float32{1}
	opt := NewAdagrad([]nn.Param{{Value: x, Grad: g}}, 1.0)
	var prev float32 = math.MaxFloat32
	cur := x[0]
	for i := 0; i < 10; i++ {
		before := cur
		opt.Step()
		cur = x[0]
		step := before - cur
		if step <= 0 {
			t.Fatal("AdaGrad step must be positive for positive grad")
		}
		if step >= prev {
			t.Fatalf("AdaGrad steps must shrink: %v then %v", prev, step)
		}
		prev = step
	}
}

func TestSparseSGDUpdatesOnlyTouchedRows(t *testing.T) {
	rng := xrand.New(1)
	tab := embedding.NewTable("t", 5, 2, rng)
	before := tab.Weights.Clone()
	sg := embedding.NewSparseGrad(2)
	sg.Add(3, []float32{1, -1})
	opt := &SparseSGD{LR: 0.5, Table: tab}
	opt.Apply(sg)
	for r := 0; r < 5; r++ {
		for c := 0; c < 2; c++ {
			got, want := tab.Weights.At(r, c), before.At(r, c)
			if r == 3 {
				delta := float32(0.5)
				if c == 1 {
					delta = -0.5
				}
				if math.Abs(float64(got-(want-delta))) > 1e-6 {
					t.Errorf("row 3 col %d: got %v want %v", c, got, want-delta)
				}
			} else if got != want {
				t.Errorf("untouched row %d changed", r)
			}
		}
	}
}

func TestRowWiseAdagradConverges(t *testing.T) {
	// Drive one embedding row toward a target via repeated sparse grads.
	rng := xrand.New(2)
	tab := embedding.NewTable("t", 4, 3, rng)
	target := []float32{1, 2, 3}
	opt := NewRowWiseAdagrad(tab, 0.5)
	for i := 0; i < 3000; i++ {
		sg := embedding.NewSparseGrad(3)
		row := tab.Weights.Row(2)
		g := make([]float32, 3)
		for j := range g {
			g[j] = 2 * (row[j] - target[j])
		}
		sg.Add(2, g)
		opt.Apply(sg)
	}
	row := tab.Weights.Row(2)
	for j := range target {
		if math.Abs(float64(row[j]-target[j])) > 0.05 {
			t.Fatalf("row[%d] = %v, want ~%v", j, row[j], target[j])
		}
	}
}

func TestLRScalingRules(t *testing.T) {
	if lr := LinearScaledLR(0.1, 200, 1600); math.Abs(lr-0.8) > 1e-12 {
		t.Errorf("linear scaled LR = %v, want 0.8", lr)
	}
	if lr := SqrtScaledLR(0.1, 100, 400); math.Abs(lr-0.2) > 1e-12 {
		t.Errorf("sqrt scaled LR = %v, want 0.2", lr)
	}
}

func TestWarmupSchedule(t *testing.T) {
	w := WarmupSchedule{Base: 1.0, WarmupIters: 10}
	if lr := w.At(0); math.Abs(lr-0.1) > 1e-12 {
		t.Errorf("warmup At(0) = %v, want 0.1", lr)
	}
	if lr := w.At(9); math.Abs(lr-1.0) > 1e-12 {
		t.Errorf("warmup At(9) = %v, want 1.0", lr)
	}
	if lr := w.At(100); lr != 1.0 {
		t.Errorf("post-warmup = %v, want 1.0", lr)
	}
	none := WarmupSchedule{Base: 0.5}
	if lr := none.At(0); lr != 0.5 {
		t.Errorf("no-warmup At(0) = %v, want 0.5", lr)
	}
}

func TestClipByGlobalNorm(t *testing.T) {
	g := []float32{3, 4} // norm 5
	p := []nn.Param{{Value: make([]float32, 2), Grad: g}}
	norm := ClipByGlobalNorm(p, 1)
	if math.Abs(float64(norm)-5) > 1e-5 {
		t.Errorf("pre-clip norm = %v, want 5", norm)
	}
	if n := tensor.L2Norm(g); math.Abs(float64(n)-1) > 1e-5 {
		t.Errorf("post-clip norm = %v, want 1", n)
	}
	// Below the threshold nothing changes.
	g2 := []float32{0.1, 0.1}
	ClipByGlobalNorm([]nn.Param{{Value: make([]float32, 2), Grad: g2}}, 10)
	if g2[0] != 0.1 {
		t.Error("clip must not rescale small gradients")
	}
}
