// Package nn implements the multi-layer perceptron (MLP) stacks used by
// the recommendation model: fully connected layers with ReLU activations,
// forward/backward passes over mini-batches, and the classification losses
// and quality metrics (log loss, normalized entropy) the paper reports.
//
// The paper's model (Fig 3) contains two MLP stacks — the bottom (dense
// feature) MLP and the top (post-interaction) MLP — both built from this
// package.
package nn

import (
	"fmt"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Param is one trainable tensor with its gradient accumulator. Optimizers
// consume Params without knowing layer structure.
type Param struct {
	Name  string
	Value []float32
	Grad  []float32
}

// denseLayer is one fully connected layer y = x·W + b with optional ReLU.
type denseLayer struct {
	in, out int
	w       *tensor.Matrix // in×out, shared between weight-sharing clones
	b       []float32      // len out, shared
	gradW   *tensor.Matrix // private per clone
	gradB   []float32

	relu bool

	// forward caches (private per clone)
	x   *tensor.Matrix // input
	y   *tensor.Matrix // post-activation output
	dxB *tensor.Matrix // scratch for input gradient
}

func newDenseLayer(in, out int, relu bool, rng *xrand.RNG) *denseLayer {
	l := &denseLayer{
		in: in, out: out,
		w:     tensor.New(in, out),
		b:     make([]float32, out),
		gradW: tensor.New(in, out),
		gradB: make([]float32, out),
		relu:  relu,
	}
	tensor.XavierInit(l.w, in, out, rng)
	return l
}

func (l *denseLayer) forward(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != l.in {
		panic(fmt.Sprintf("nn: layer expects %d inputs, got %d", l.in, x.Cols))
	}
	l.x = x
	if l.y == nil || l.y.Rows != x.Rows {
		l.y = tensor.New(x.Rows, l.out)
	}
	// Fused kernel: matmul, bias, and activation in one pass over l.y.
	tensor.MatMulBiasReLU(l.y, x, l.w, l.b, l.relu)
	return l.y
}

// backward consumes dY (gradient w.r.t. this layer's output), accumulates
// into gradW/gradB, and returns dX. dY may be mutated in place (the ReLU
// mask is applied to it). Steady-state calls allocate nothing: the weight
// gradient accumulates in place (MatMulTransAAcc) and the input-gradient
// buffer is reused across batches.
func (l *denseLayer) backward(dy *tensor.Matrix) *tensor.Matrix {
	// Fused pass: apply the ReLU mask and accumulate the bias gradient
	// (column sums of dY) row-by-row while each row is cache-hot.
	for i := 0; i < dy.Rows; i++ {
		drow := dy.Row(i)
		if l.relu {
			tensor.ReLUGradInto(drow, l.y.Row(i))
		}
		tensor.AddTo(l.gradB, drow)
	}
	// Weight gradient: Xᵀ·dY, accumulated in place.
	tensor.MatMulTransAAcc(l.gradW, l.x, dy)
	// Input gradient: dY·Wᵀ.
	if l.dxB == nil || l.dxB.Rows != dy.Rows {
		l.dxB = tensor.New(dy.Rows, l.in)
	}
	tensor.MatMulTransB(l.dxB, dy, l.w)
	return l.dxB
}

// MLP is a stack of fully connected layers. All hidden layers use ReLU;
// the final layer is linear (the sigmoid lives in the loss).
type MLP struct {
	Dims   []int
	layers []*denseLayer
}

// NewMLP builds an MLP with the given layer dimensions. dims[0] is the
// input width; dims[len-1] is the output width. len(dims) must be >= 2.
func NewMLP(dims []int, rng *xrand.RNG) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least input and output dims")
	}
	m := &MLP{Dims: append([]int(nil), dims...)}
	for i := 0; i+1 < len(dims); i++ {
		relu := i+2 < len(dims) // last layer linear
		m.layers = append(m.layers, newDenseLayer(dims[i], dims[i+1], relu, rng))
	}
	return m
}

// Forward runs the batch x (B×dims[0]) through the stack and returns the
// output (B×dims[last]). Intermediate activations are cached for Backward.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	h := x
	for _, l := range m.layers {
		h = l.forward(h)
	}
	return h
}

// Backward propagates dOut through the stack, accumulating parameter
// gradients, and returns the gradient w.r.t. the input batch.
func (m *MLP) Backward(dout *tensor.Matrix) *tensor.Matrix {
	d := dout
	for i := len(m.layers) - 1; i >= 0; i-- {
		d = m.layers[i].backward(d)
	}
	return d
}

// ZeroGrad clears all accumulated gradients.
func (m *MLP) ZeroGrad() {
	for _, l := range m.layers {
		l.gradW.Zero()
		for i := range l.gradB {
			l.gradB[i] = 0
		}
	}
}

// Params returns the trainable parameters paired with their gradient
// buffers, in a stable order.
func (m *MLP) Params() []Param {
	var ps []Param
	for i, l := range m.layers {
		ps = append(ps,
			Param{Name: fmt.Sprintf("layer%d.w", i), Value: l.w.Data, Grad: l.gradW.Data},
			Param{Name: fmt.Sprintf("layer%d.b", i), Value: l.b, Grad: l.gradB})
	}
	return ps
}

// ShareWeights returns a new MLP that aliases this MLP's weights but owns
// private gradient and activation buffers: the dense half of an
// evaluation view (hybrid.EvalModel) and of a forked generator's teacher,
// which read the owner's weights through activations of their own.
func (m *MLP) ShareWeights() *MLP {
	c := &MLP{Dims: m.Dims}
	for _, l := range m.layers {
		c.layers = append(c.layers, &denseLayer{
			in: l.in, out: l.out,
			w: l.w, b: l.b, // shared
			gradW: tensor.New(l.in, l.out),
			gradB: make([]float32, l.out),
			relu:  l.relu,
		})
	}
	return c
}

// Clone returns a deep copy with independent weights and gradients.
func (m *MLP) Clone() *MLP {
	c := &MLP{Dims: m.Dims}
	for _, l := range m.layers {
		nl := &denseLayer{
			in: l.in, out: l.out,
			w:     l.w.Clone(),
			b:     append([]float32(nil), l.b...),
			gradW: tensor.New(l.in, l.out),
			gradB: make([]float32, l.out),
			relu:  l.relu,
		}
		c.layers = append(c.layers, nl)
	}
	return c
}

// NumParams returns the total number of trainable scalars.
func (m *MLP) NumParams() int64 {
	var n int64
	for _, l := range m.layers {
		n += int64(l.in*l.out) + int64(l.out)
	}
	return n
}

// FLOPsPerExample returns the forward-pass multiply-add count for a single
// example, the quantity the hardware cost model charges for MLP compute.
func (m *MLP) FLOPsPerExample() int64 {
	var f int64
	for _, l := range m.layers {
		f += 2 * int64(l.in) * int64(l.out)
	}
	return f
}
