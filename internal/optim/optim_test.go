package optim

import (
	"math"
	"runtime"
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

// TestDenseStepBlocksBitIdentical runs SGD and AdaGrad over parameters
// spanning several denseBlock blocks (sizes that straddle block edges)
// on the worker pool, and requires the bits of one serial sweep per
// parameter, allocating nothing. It also pins the size gate: the dense_heavy model's 530k
// dense parameters fan out, BenchStepConfig's ~29k do not.
func TestDenseStepBlocksBitIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, c := range []struct {
		params int
		fans   bool
	}{{530_000, true}, {29_601, false}} {
		ps := []nn.Param{{Value: make([]float32, c.params)}}
		if got := tensor.RangeFansOut(denseBlocks(ps), denseBlockWork); got != c.fans {
			t.Errorf("%d dense parameters: fans out %v, want %v", c.params, got, c.fans)
		}
	}
	sizes := []int{5, denseBlock - 3, 70_000, 1, 3*denseBlock + 17, 256}
	build := func() []nn.Param {
		rng := xrand.New(22)
		var ps []nn.Param
		for _, n := range sizes {
			p := nn.Param{Value: make([]float32, n), Grad: make([]float32, n)}
			for i := range p.Value {
				p.Value[i] = float32(rng.NormMS(0, 1))
				p.Grad[i] = float32(rng.NormMS(0, 1))
			}
			ps = append(ps, p)
		}
		return ps
	}
	if !tensor.RangeFansOut(denseBlocks(build()), denseBlockWork) {
		t.Fatal("the test parameters do not reach the pool")
	}
	want, got := build(), build()
	acc := make([][]float32, len(want))
	for i, p := range want {
		acc[i] = make([]float32, len(p.Value))
	}
	ada := NewAdagrad(got, 0.05)
	sgd := NewSGD(got, 0.05)
	for step := 0; step < 3; step++ {
		for i, p := range want {
			tensor.AdagradStep(p.Value, p.Grad, acc[i], 0.05, 1e-8)
			tensor.Axpy(-0.05, p.Grad, p.Value)
		}
		ada.Step()
		sgd.Step()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for step := 0; step < 10; step++ {
		ada.Step()
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / 10; n != 0 {
		t.Errorf("pooled Adagrad.Step allocates %d objects per step, want 0", n)
	}
	for step := 0; step < 10; step++ {
		for i, p := range want {
			tensor.AdagradStep(p.Value, p.Grad, acc[i], 0.05, 1e-8)
		}
	}
	for i := range want {
		for j := range want[i].Value {
			if math.Float32bits(got[i].Value[j]) != math.Float32bits(want[i].Value[j]) ||
				math.Float32bits(ada.Accum()[i][j]) != math.Float32bits(acc[i][j]) {
				t.Fatalf("param %d element %d: %v (acc %v), serial sweep %v (acc %v)",
					i, j, got[i].Value[j], ada.Accum()[i][j], want[i].Value[j], acc[i][j])
			}
		}
	}
}
