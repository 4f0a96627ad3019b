package core

import (
	"repro/internal/ckpt"
	"repro/internal/embedding"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// SparseStep is the embedding half of a training step as one trainer
// runs it: sum-pooled lookup, gradient scatter, sparse optimizer update
// and touched-row tracking. Every trainer drives its tables through it,
// so plain-vs-dedup kernels, the optimizer and split-SGD re-quantization
// are chosen here and in internal/optim, never in a trainer (DESIGN.md,
// "The sparse step").
//
// A table has exactly one owning step, which holds its optimizer and
// ckpt.Dirty tracker. The step's one table loop is RunRange. Lookup,
// Scatter and Apply each run it over every table of the step, inline or
// (large batches, see tensor.ParallelRange) table by table on the tensor
// worker pool. Whatever a phase writes is private to a table — its
// pooled output, SparseGrad, Scratch, optimizer and Dirty — so tables
// proceed concurrently with results identical to the serial walk. The
// phase operands live in the step, so one goroutine drives a step. A
// step built by AssembleModel owns nothing and walks every table: the
// lookup-and-scatter view a Trainer replaces with its own step, and the
// one an evaluation model keeps.
type SparseStep struct {
	tables []*embedding.Table // every table, by feature index
	owned  []int              // features this step updates, ascending
	walk   []int              // features Lookup and Scatter visit: owned, or all in a view
	opt    []optim.Sparse     // by feature; nil unless owned
	dirty  []*ckpt.Dirty      // by feature; nil unless owned
	lr     float32            // base embedding learning rate

	grads   []*embedding.SparseGrad // by feature
	scratch []*embedding.Scratch    // by feature: dedup gather slab

	// The phase in flight, read by RunRange.
	phase sparsePhase
	feats []int // walk or owned
	batch *MiniBatch
	mats  []*tensor.Matrix // by feature: pooled outputs or their gradients
	scale float32
}

type sparsePhase uint8

const (
	phaseLookup sparsePhase = iota
	phaseScatter
	phaseApply
)

// NewSparseStep builds the step over tables; opts are the optimizers of
// the owned features, aligned with owned, and lr their base learning rate.
func NewSparseStep(tables []*embedding.Table, owned []int, opts []optim.Sparse, lr float32) *SparseStep {
	s := newSparseView(tables)
	s.owned, s.walk, s.lr = owned, owned, lr
	for oi, ti := range owned {
		s.opt[ti] = opts[oi]
		s.dirty[ti] = ckpt.NewDirty(tables[ti].HashSize)
	}
	return s
}

// newSparseView builds the step that owns no table and walks them all.
func newSparseView(tables []*embedding.Table) *SparseStep {
	s := &SparseStep{
		tables:  tables,
		walk:    make([]int, len(tables)),
		opt:     make([]optim.Sparse, len(tables)),
		dirty:   make([]*ckpt.Dirty, len(tables)),
		grads:   make([]*embedding.SparseGrad, len(tables)),
		scratch: make([]*embedding.Scratch, len(tables)),
	}
	for ti, tab := range tables {
		s.walk[ti] = ti
		s.grads[ti] = embedding.NewSparseGrad(tab.Dim)
		s.scratch[ti] = embedding.NewScratch()
	}
	return s
}

// Lookup sum-pools every walked feature of the batch into outs[feature]
// (B×dim). A built dedup view selects the unique-row kernel: same math,
// fewer table reads.
func (s *SparseStep) Lookup(b *MiniBatch, outs []*tensor.Matrix) {
	s.run(phaseLookup, s.walk, b, outs, 0)
}

// Scatter accumulates every walked feature's pooled-output gradient
// dOuts[feature] (B×dim) into the step's SparseGrads, returned by
// feature and valid until the next Scatter.
func (s *SparseStep) Scatter(b *MiniBatch, dOuts []*tensor.Matrix) []*embedding.SparseGrad {
	s.run(phaseScatter, s.walk, b, dOuts, 0)
	return s.grads
}

// Apply runs every owned feature's optimizer over the gradients Scatter
// accumulated from b, at lrScale times the base learning rate, and marks
// the touched rows.
func (s *SparseStep) Apply(b *MiniBatch, lrScale float32) {
	s.run(phaseApply, s.owned, b, nil, lrScale)
}

// run executes one phase over feats. The pool takes it only when the
// average table repays a hand-off on its own (ids × dim against the GEMM
// threshold): tables are the unit, so a phase of many small tables is no
// better a candidate than a phase of one.
func (s *SparseStep) run(p sparsePhase, feats []int, b *MiniBatch, mats []*tensor.Matrix, scale float32) {
	s.phase, s.feats, s.batch, s.mats, s.scale = p, feats, b, mats, scale
	tensor.ParallelRange(s, len(feats), s.tableWork(feats, b))
	s.batch, s.mats = nil, nil
}

// tableWork is the mean of ids × dim over feats: what one table costs in
// any phase, in the unit of tensor's FLOP estimates.
func (s *SparseStep) tableWork(feats []int, b *MiniBatch) int {
	if len(feats) == 0 {
		return 0
	}
	var w int
	for _, ti := range feats {
		w += len(b.Bags[ti].Indices) * s.tables[ti].Dim
	}
	return w / len(feats)
}

// RunRange runs the phase in flight over its features [lo, hi). It is
// the tensor.Ranger body of run, not an entry point.
func (s *SparseStep) RunRange(lo, hi int) {
	b := s.batch
	for _, ti := range s.feats[lo:hi] {
		tab, sg, sc := s.tables[ti], s.grads[ti], s.scratch[ti]
		switch s.phase {
		case phaseLookup:
			if dd := b.DedupFor(ti); dd != nil {
				tab.BagForwardDedup(b.Bags[ti], dd, s.mats[ti], sc)
			} else {
				tab.BagForwardInto(b.Bags[ti], s.mats[ti], sc)
			}
		case phaseScatter:
			sg.Reset()
			if dd := b.DedupFor(ti); dd != nil {
				tab.BagBackwardDedup(b.Bags[ti], dd, s.mats[ti], sg)
			} else {
				tab.BagBackward(b.Bags[ti], s.mats[ti], sg)
			}
		case phaseApply:
			s.opt[ti].SetLR(s.lr * s.scale)
			s.opt[ti].Apply(sg)
			s.dirty[ti].Mark(sg.RowIDs())
		}
	}
}

// Dirty returns the touched-row trackers by feature, nil unless owned.
func (s *SparseStep) Dirty() []*ckpt.Dirty { return s.dirty }
