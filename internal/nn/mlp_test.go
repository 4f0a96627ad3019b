package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func TestMLPForwardShape(t *testing.T) {
	rng := xrand.New(1)
	m := NewMLP([]int{8, 16, 4, 1}, rng)
	x := tensor.New(5, 8)
	tensor.NormalInit(x, 1, rng)
	y := m.Forward(x)
	if y.Rows != 5 || y.Cols != 1 {
		t.Fatalf("output shape %dx%d, want 5x1", y.Rows, y.Cols)
	}
}

func TestMLPPanicsOnWrongInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	rng := xrand.New(1)
	m := NewMLP([]int{8, 4}, rng)
	m.Forward(tensor.New(2, 5))
}

func TestNewMLPPanicsOnShortDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dims of length 1")
		}
	}()
	NewMLP([]int{8}, xrand.New(1))
}

// TestMLPGradCheck validates analytic backprop against central differences
// on every parameter of a small network.
func TestMLPGradCheck(t *testing.T) {
	rng := xrand.New(2)
	m := NewMLP([]int{4, 6, 3, 1}, rng)
	b := 3
	x := tensor.New(b, 4)
	tensor.NormalInit(x, 1, rng)
	labels := []float32{1, 0, 1}

	lossFn := func() float64 {
		out := m.Forward(x)
		logits := make([]float32, b)
		for i := 0; i < b; i++ {
			logits[i] = out.At(i, 0)
		}
		return BCEWithLogits(logits, labels, nil)
	}

	// Analytic gradients.
	m.ZeroGrad()
	out := m.Forward(x)
	logits := make([]float32, b)
	for i := 0; i < b; i++ {
		logits[i] = out.At(i, 0)
	}
	grad := make([]float32, b)
	BCEWithLogits(logits, labels, grad)
	dout := tensor.New(b, 1)
	for i := 0; i < b; i++ {
		dout.Set(i, 0, grad[i])
	}
	m.Backward(dout)

	// Central differences on a float32 ReLU network are noisy at kinks
	// (a perturbation can flip a hidden unit on/off), so the check is
	// statistical: the overwhelming majority of entries must agree.
	total, bad := 0, 0
	for _, p := range m.Params() {
		numer := NumericalGradient(lossFn, p.Value, 1e-2)
		for i := range p.Value {
			total++
			diff := math.Abs(float64(numer[i] - p.Grad[i]))
			scale := math.Max(1e-3, math.Abs(float64(numer[i]))+math.Abs(float64(p.Grad[i])))
			if diff/scale > 0.10 {
				bad++
				t.Logf("%s[%d]: analytic %v vs numeric %v", p.Name, i, p.Grad[i], numer[i])
			}
		}
	}
	if float64(bad) > 0.03*float64(total) {
		t.Fatalf("%d/%d gradient entries disagree beyond tolerance", bad, total)
	}
}

func TestMLPInputGradCheck(t *testing.T) {
	rng := xrand.New(3)
	m := NewMLP([]int{3, 5, 1}, rng)
	x := tensor.New(2, 3)
	tensor.NormalInit(x, 1, rng)
	labels := []float32{1, 0}

	lossFn := func() float64 {
		out := m.Forward(x)
		logits := []float32{out.At(0, 0), out.At(1, 0)}
		return BCEWithLogits(logits, labels, nil)
	}
	m.ZeroGrad()
	out := m.Forward(x)
	logits := []float32{out.At(0, 0), out.At(1, 0)}
	grad := make([]float32, 2)
	BCEWithLogits(logits, labels, grad)
	dout := tensor.FromData(2, 1, append([]float32(nil), grad...))
	dx := m.Backward(dout)

	numer := NumericalGradient(lossFn, x.Data, 1e-2)
	for i := range x.Data {
		diff := math.Abs(float64(numer[i] - dx.Data[i]))
		scale := math.Max(1e-3, math.Abs(float64(numer[i])))
		if diff/scale > 0.05 {
			t.Fatalf("dx[%d]: analytic %v vs numeric %v", i, dx.Data[i], numer[i])
		}
	}
}

func TestShareWeightsAliasing(t *testing.T) {
	rng := xrand.New(4)
	m := NewMLP([]int{4, 4, 1}, rng)
	c := m.ShareWeights()
	// Mutating clone weights must affect the original (shared storage)...
	c.Params()[0].Value[0] = 42
	if m.Params()[0].Value[0] != 42 {
		t.Error("ShareWeights must alias weight storage")
	}
	// ...but gradients must be private.
	c.Params()[0].Grad[0] = 7
	if m.Params()[0].Grad[0] == 7 {
		t.Error("ShareWeights must NOT alias gradient storage")
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := xrand.New(5)
	m := NewMLP([]int{4, 4, 1}, rng)
	c := m.Clone()
	c.Params()[0].Value[0] = 42
	if m.Params()[0].Value[0] == 42 {
		t.Error("Clone must copy weights")
	}
}

func TestNumParamsAndFLOPs(t *testing.T) {
	m := NewMLP([]int{10, 20, 5}, xrand.New(6))
	wantParams := 10*20 + 20 + 20*5 + 5
	got := 0
	for _, p := range m.Params() {
		got += len(p.Value)
	}
	if got != wantParams {
		t.Errorf("Params hold %d scalars, want %d", got, wantParams)
	}
}

func TestZeroGrad(t *testing.T) {
	rng := xrand.New(7)
	m := NewMLP([]int{2, 3, 1}, rng)
	x := tensor.New(2, 2)
	tensor.NormalInit(x, 1, rng)
	out := m.Forward(x)
	dout := tensor.New(out.Rows, out.Cols)
	dout.Fill(1)
	m.Backward(dout)
	m.ZeroGrad()
	for _, p := range m.Params() {
		for i, g := range p.Grad {
			if g != 0 {
				t.Fatalf("%s grad[%d] = %v after ZeroGrad", p.Name, i, g)
			}
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := xrand.New(8)
	m := NewMLP([]int{2, 1}, rng)
	x := tensor.FromData(1, 2, []float32{1, 2})
	dout := tensor.FromData(1, 1, []float32{1})
	m.ZeroGrad()
	m.Forward(x)
	m.Backward(dout.Clone())
	g1 := append([]float32(nil), m.Params()[0].Grad...)
	m.Forward(x)
	m.Backward(dout.Clone())
	for i, g := range m.Params()[0].Grad {
		if math.Abs(float64(g-2*g1[i])) > 1e-5 {
			t.Fatalf("gradients must accumulate: got %v, want %v", g, 2*g1[i])
		}
	}
}

func TestReLUForward(t *testing.T) {
	rng := xrand.New(9)
	m := NewMLP([]int{1, 4, 1}, rng)
	// Hidden activations must be non-negative after ReLU.
	x := tensor.FromData(1, 1, []float32{-3})
	m.Forward(x)
	hidden := m.layers[0].y
	for _, v := range hidden.Data {
		if v < 0 {
			t.Fatalf("ReLU output %v < 0", v)
		}
	}
}

// TestBackwardParamsMatchesBackward holds BackwardParams to Backward's
// parameter gradients, bit for bit: skipping the first layer's input
// gradient changes nothing else.
func TestBackwardParamsMatchesBackward(t *testing.T) {
	rng := xrand.New(9)
	m := NewMLP([]int{24, 80, 16, 1}, rng)
	x := tensor.New(7, 24)
	tensor.NormalInit(x, 1, rng)
	dout := tensor.New(7, 1)
	tensor.NormalInit(dout, 1, rng)
	grads := func(backward func(*tensor.Matrix)) [][]float32 {
		m.ZeroGrad()
		m.Forward(x)
		backward(dout.Clone())
		var gs [][]float32
		for _, p := range m.Params() {
			gs = append(gs, append([]float32(nil), p.Grad...))
		}
		return gs
	}
	want := grads(func(d *tensor.Matrix) { m.Backward(d) })
	got := grads(m.BackwardParams)
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("param %d element %d: %v, Backward gives %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}
