package core

import (
	"repro/internal/ckpt"
	"repro/internal/embedding"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// SparseStep is the embedding half of a training step as one worker runs
// it: sum-pooled lookup, gradient scatter, sparse optimizer update and
// touched-row tracking. Every trainer drives its tables through it, so
// plain-vs-dedup kernels, the optimizer and split-SGD re-quantization are
// chosen here and in internal/optim, never in a trainer (DESIGN.md, "The
// sparse step").
//
// A table has exactly one owning step, which holds its optimizer and
// ckpt.Dirty tracker. The arenas (one SparseGrad per table, the lookup
// Scratch) are private, so a step serves one goroutine; one without owned
// tables is the scatter-only view of a Hogwild worker, which hands its
// SparseGrads to the owner's Apply.
type SparseStep struct {
	tables []*embedding.Table // every table, by feature index
	owned  []int              // features this step updates, ascending
	opt    []optim.Sparse     // by feature; nil unless owned
	dirty  []*ckpt.Dirty      // by feature; nil unless owned
	lr     float32            // base embedding learning rate

	grads   []*embedding.SparseGrad
	scratch *embedding.Scratch
}

// NewSparseStep builds the step over tables; opts are the optimizers of
// the owned features, aligned with owned, and lr their base learning rate.
func NewSparseStep(tables []*embedding.Table, owned []int, opts []optim.Sparse, lr float32) *SparseStep {
	s := &SparseStep{
		tables:  tables,
		owned:   owned,
		opt:     make([]optim.Sparse, len(tables)),
		dirty:   make([]*ckpt.Dirty, len(tables)),
		lr:      lr,
		grads:   make([]*embedding.SparseGrad, len(tables)),
		scratch: embedding.NewScratch(),
	}
	for ti, tab := range tables {
		s.grads[ti] = embedding.NewSparseGrad(tab.Dim)
	}
	for oi, ti := range owned {
		s.opt[ti] = opts[oi]
		s.dirty[ti] = ckpt.NewDirty(tables[ti].HashSize)
	}
	return s
}

// Lookup sum-pools feature ti of the batch into out (B×dim). A built
// dedup view selects the unique-row kernel: same math, fewer table reads.
func (s *SparseStep) Lookup(b *MiniBatch, ti int, out *tensor.Matrix) {
	if dd := b.DedupFor(ti); dd != nil {
		s.tables[ti].BagForwardDedup(b.Bags[ti], dd, out, s.scratch)
	} else {
		s.tables[ti].BagForwardInto(b.Bags[ti], out, s.scratch)
	}
}

// Scatter accumulates feature ti's pooled-output gradient dOut (B×dim)
// into the step's SparseGrad, valid until the next Scatter of ti.
func (s *SparseStep) Scatter(b *MiniBatch, ti int, dOut *tensor.Matrix) *embedding.SparseGrad {
	sg := s.grads[ti]
	sg.Reset()
	if dd := b.DedupFor(ti); dd != nil {
		s.tables[ti].BagBackwardDedup(b.Bags[ti], dd, dOut, sg, s.scratch)
	} else {
		s.tables[ti].BagBackward(b.Bags[ti], dOut, sg)
	}
	return sg
}

// Apply runs owned feature ti's optimizer over sg (this step's or a
// worker view's) at lrScale times the base learning rate and marks the
// touched rows. Concurrent calls race on rows and marks alike: Hogwild.
func (s *SparseStep) Apply(ti int, sg *embedding.SparseGrad, lrScale float32) {
	s.opt[ti].SetLR(s.lr * lrScale)
	s.opt[ti].Apply(sg)
	s.dirty[ti].Mark(sg.RowIDs())
}

// Dirty returns the touched-row trackers by feature, nil unless owned.
func (s *SparseStep) Dirty() []*ckpt.Dirty { return s.dirty }
