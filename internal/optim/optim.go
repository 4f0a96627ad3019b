// Package optim implements the optimizers used for recommendation model
// training at Facebook (§III-B6 of the paper): dense SGD and Adagrad for
// the MLP stacks, row-wise sparse Adagrad for embedding tables, and the
// learning-rate scaling/warmup schedules that large-batch training
// requires (§VI-C).
package optim

import (
	"fmt"
	"math"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Kind names an optimizer family; configs carry it, checkpoints record it.
type Kind string

const (
	KindSGD     Kind = "sgd"     // plain SGD for MLPs and embedding rows
	KindAdagrad Kind = "adagrad" // AdaGrad for MLPs, row-wise AdaGrad for rows
)

// Dense is the optimizer seam for a worker's MLP parameters. Accum
// aliases the live optimizer state aligned with the bound params (nil
// when there is none): reading snapshots it, writing restores it — the
// export/import seam of internal/ckpt.
type Dense interface {
	SetLR(lr float32)
	Step()
	Accum() [][]float32
}

// Sparse is the optimizer seam for one embedding table. Apply updates the
// fp32 master rows present in sg in first-touch order and re-quantizes
// each into the table's reduced-precision replica (split-SGD). Accum
// aliases the per-row state, nil when there is none.
type Sparse interface {
	SetLR(lr float32)
	Apply(sg *embedding.SparseGrad)
	Accum() []float32
}

// New builds one worker's optimizers: the dense one over params and one
// sparse one per owned table (indices into tables), aligned with owned.
// Only here does a kind select an implementation.
func New(kind Kind, params []nn.Param, lr float32, tables []*embedding.Table, owned []int, sparseLR float32) (Dense, []Sparse, error) {
	sparse := make([]Sparse, len(owned))
	switch kind {
	case KindSGD:
		for i, ti := range owned {
			sparse[i] = &SparseSGD{LR: sparseLR, Table: tables[ti]}
		}
		return NewSGD(params, lr), sparse, nil
	case KindAdagrad:
		for i, ti := range owned {
			sparse[i] = NewRowWiseAdagrad(tables[ti], sparseLR)
		}
		return NewAdagrad(params, lr), sparse, nil
	}
	return nil, nil, fmt.Errorf("optim: unknown optimizer %q", kind)
}

// SGD is plain stochastic gradient descent over a fixed parameter set.
type SGD struct {
	LR     float32
	params []nn.Param
}

// NewSGD binds an SGD optimizer to params.
func NewSGD(params []nn.Param, lr float32) *SGD {
	return &SGD{LR: lr, params: params}
}

// Step applies p -= lr * grad for every bound parameter. Gradients are
// left untouched; the caller zeroes them between batches.
func (s *SGD) Step() {
	for _, p := range s.params {
		tensor.Axpy(-s.LR, p.Grad, p.Value)
	}
}

// SetLR and Accum complete Dense; SGD keeps no optimizer state.
func (s *SGD) SetLR(lr float32)   { s.LR = lr }
func (s *SGD) Accum() [][]float32 { return nil }

// Adagrad is the diagonal AdaGrad optimizer for dense parameters.
type Adagrad struct {
	LR    float32
	Eps   float32
	param []nn.Param
	accum [][]float32
}

// NewAdagrad binds an Adagrad optimizer to params.
func NewAdagrad(params []nn.Param, lr float32) *Adagrad {
	a := &Adagrad{LR: lr, Eps: 1e-8, param: params}
	for _, p := range params {
		a.accum = append(a.accum, make([]float32, len(p.Value)))
	}
	return a
}

// Step applies the AdaGrad update using accumulated squared gradients.
func (a *Adagrad) Step() {
	for pi, p := range a.param {
		tensor.AdagradStep(p.Value, p.Grad, a.accum[pi], a.LR, a.Eps)
	}
}

// SetLR and Accum complete Dense; Accum exposes the per-parameter
// squared-gradient accumulators.
func (a *Adagrad) SetLR(lr float32)   { a.LR = lr }
func (a *Adagrad) Accum() [][]float32 { return a.accum }

// SparseSGD applies per-row SGD updates to an embedding table from a
// SparseGrad accumulator.
type SparseSGD struct {
	LR    float32
	Table *embedding.Table
}

// Apply updates only the rows present in sg, in first-touch order. The
// update lands on the fp32 master row; SyncRow then re-quantizes the
// touched row into the table's reduced-precision replica (split-SGD —
// a no-op for fp32 tables).
func (s *SparseSGD) Apply(sg *embedding.SparseGrad) {
	sg.ForEach(func(ix int32, g []float32) {
		tensor.Axpy(-s.LR, g, s.Table.Weights.Row(int(ix)))
		s.Table.SyncRow(int(ix))
	})
}

// SetLR and Accum complete Sparse; SGD keeps no optimizer state.
func (s *SparseSGD) SetLR(lr float32) { s.LR = lr }
func (s *SparseSGD) Accum() []float32 { return nil }

// RowWiseAdagrad is the memory-efficient sparse AdaGrad variant used for
// production embedding tables: one accumulator scalar per row (the mean
// squared gradient of the row) instead of one per element, cutting
// optimizer state from O(rows*dim) to O(rows).
type RowWiseAdagrad struct {
	LR    float32
	Eps   float32
	Table *embedding.Table
	accum []float32 // one per row, lazily grown
}

// NewRowWiseAdagrad binds the optimizer to a table.
func NewRowWiseAdagrad(table *embedding.Table, lr float32) *RowWiseAdagrad {
	return &RowWiseAdagrad{
		LR:    lr,
		Eps:   1e-8,
		Table: table,
		accum: make([]float32, table.HashSize),
	}
}

// SetLR and Accum complete Sparse; Accum exposes the per-row
// mean-squared-gradient accumulator (length HashSize).
func (r *RowWiseAdagrad) SetLR(lr float32) { r.LR = lr }
func (r *RowWiseAdagrad) Accum() []float32 { return r.accum }

// Apply updates the rows present in sg using the row-wise accumulator,
// in first-touch order. It walks the gradient slab eight rows at a time:
// first the block's sums of squares (tensor.SumSquaresRows, eight
// independent chains), then each row's update in order. Only reads of the
// slab move earlier, and the rows of one SparseGrad are distinct, so the
// result is that of updating row by row. The block is a fixed
// eight-float array on the stack, so Apply needs no scratch field and
// allocates nothing.
func (r *RowWiseAdagrad) Apply(sg *embedding.SparseGrad) {
	d := r.Table.Dim
	dim := float32(d)
	ids, slab := sg.RowIDs(), sg.Slab()
	var sq [8]float32
	for lo := 0; lo < len(ids); lo += len(sq) {
		blk := ids[lo:min(lo+len(sq), len(ids))]
		grads := slab[lo*d : (lo+len(blk))*d]
		tensor.SumSquaresRows(sq[:len(blk)], grads, d)
		for k, ix := range blk {
			r.accum[ix] += sq[k] / dim
			scale := -r.LR / (float32(math.Sqrt(float64(r.accum[ix]))) + r.Eps)
			tensor.Axpy(scale, grads[k*d:(k+1)*d], r.Table.Weights.Row(int(ix)))
			// Split-SGD: accumulator and master stay fp32; only the lookup
			// replica is re-quantized (no-op for fp32 tables).
			r.Table.SyncRow(int(ix))
		}
	}
}

// LinearScaledLR implements the linear batch-size scaling rule of Goyal
// et al.: when the batch grows by k, grow the learning rate by k. The
// paper's Fig 15 applies exactly this "manual tuning" before measuring
// the residual accuracy gap.
func LinearScaledLR(baseLR float64, baseBatch, batch int) float64 {
	if baseBatch <= 0 {
		panic("optim: baseBatch must be positive")
	}
	return baseLR * float64(batch) / float64(baseBatch)
}

// SqrtScaledLR is the gentler square-root scaling alternative.
func SqrtScaledLR(baseLR float64, baseBatch, batch int) float64 {
	if baseBatch <= 0 {
		panic("optim: baseBatch must be positive")
	}
	return baseLR * math.Sqrt(float64(batch)/float64(baseBatch))
}

// WarmupSchedule ramps the learning rate linearly from zero over
// WarmupIters iterations, then holds it at Base. Warmup iterations are one
// of the hyper-parameters the paper lists as quality-critical (§III).
type WarmupSchedule struct {
	Base        float64
	WarmupIters int
}

// At returns the learning rate for the given 0-based iteration.
func (w WarmupSchedule) At(iter int) float64 {
	if w.WarmupIters <= 0 || iter >= w.WarmupIters {
		return w.Base
	}
	return w.Base * float64(iter+1) / float64(w.WarmupIters)
}

// ClipByGlobalNorm rescales all gradients so their concatenated L2 norm is
// at most maxNorm, returning the pre-clip norm.
func ClipByGlobalNorm(params []nn.Param, maxNorm float32) float32 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += float64(g) * float64(g)
		}
	}
	norm := float32(math.Sqrt(sq))
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			tensor.ScaleVec(p.Grad, scale)
		}
	}
	return norm
}
