package core

import (
	"fmt"
	"slices"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// MiniBatch is one training batch: a dense matrix, one pooled-lookup Bag
// per sparse feature, and the click labels.
type MiniBatch struct {
	Dense  *tensor.Matrix  // B × DenseFeatures
	Bags   []embedding.Bag // one per sparse feature
	Labels []float32       // length B, values in {0,1}

	// Dedup optionally carries the RecD-style unique-row view of each
	// bag (aligned with Bags), built by the batch's producer
	// (internal/ingest, or AttachDedup) off the trainer's goroutine.
	// Lookups and gradient scatters always run the dedup kernels; where
	// the batch carries no built view, the sparse step builds its own,
	// with the same bits.
	Dedup []embedding.DedupIndex
}

// AttachDedup builds (or rebuilds, reusing storage) the per-bag dedup
// views, so the sparse step reads them instead of building its own.
func (b *MiniBatch) AttachDedup() {
	// Within capacity, the views past len keep their storage.
	b.Dedup = slices.Grow(b.Dedup[:0], len(b.Bags))[:len(b.Bags)]
	for i := range b.Bags {
		b.Dedup[i].Build(b.Bags[i])
	}
}

// DetachDedup invalidates the dedup views (their storage is retained for
// the next AttachDedup). Every producer that rewrites Bags in place must
// detach, or consumers would pool through a stale unique/remap mapping.
func (b *MiniBatch) DetachDedup() { b.Dedup = b.Dedup[:0] }

// DedupFor returns the built dedup view for bag i, or nil.
func (b *MiniBatch) DedupFor(i int) *embedding.DedupIndex {
	if i >= len(b.Dedup) || !b.Dedup[i].Built() {
		return nil
	}
	return &b.Dedup[i]
}

// Batch returns the number of examples.
func (b *MiniBatch) Batch() int { return b.Dense.Rows }

// Validate checks the batch against a config.
func (b *MiniBatch) Validate(cfg *Config) error {
	if b.Dense.Cols != cfg.DenseFeatures {
		return fmt.Errorf("core: dense width %d, config wants %d", b.Dense.Cols, cfg.DenseFeatures)
	}
	if len(b.Bags) != cfg.NumSparse() {
		return fmt.Errorf("core: %d bags, config wants %d", len(b.Bags), cfg.NumSparse())
	}
	if len(b.Labels) != b.Batch() {
		return fmt.Errorf("core: %d labels for batch %d", len(b.Labels), b.Batch())
	}
	for i, bag := range b.Bags {
		if bag.Batch() != b.Batch() {
			return fmt.Errorf("core: bag %d batch %d != %d", i, bag.Batch(), b.Batch())
		}
		if err := bag.Validate(cfg.Sparse[i].HashSize); err != nil {
			return fmt.Errorf("core: bag %d: %w", i, err)
		}
	}
	return nil
}

// Model is an instantiated DLRM with real parameters.
type Model struct {
	Cfg    Config
	Bottom *nn.MLP
	Top    *nn.MLP
	Tables []*embedding.Table

	// forward caches
	pooled   []*tensor.Matrix // per sparse feature, B×d (local-lookup path)
	pooledIn []*tensor.Matrix // pooled matrices of the current forward pass
	z        *tensor.Matrix   // bottom output, B×d
	xTop     *tensor.Matrix   // interaction output, B×interactionDim
	logits   []float32        // returned by Forward, reused across batches

	// backward scratch
	dPooled []*tensor.Matrix
	dZ      *tensor.Matrix
	dOut    *tensor.Matrix // B×1 logit-gradient column

	// reusable arenas: one example's interaction vectors and their
	// gradients, (s+1)×d each, and the sparse step with the per-table
	// gradient accumulators and lookup scratches — scatter-only until a
	// Trainer installs its own. Together they make steady-state
	// Forward/Backward allocation-free.
	vecs, dvecs []float32
	sparse      *SparseStep
}

// NewModel allocates a model with freshly initialized parameters. It
// panics if the config is invalid (validate configs at the boundary).
func NewModel(cfg Config, rng *xrand.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	bottom := nn.NewMLP(cfg.BottomDims(), rng)
	top := nn.NewMLP(cfg.TopDims(), rng)
	tables := make([]*embedding.Table, len(cfg.Sparse))
	for i, s := range cfg.Sparse {
		tables[i] = embedding.NewTableTyped(s.Name, s.HashSize, cfg.EmbeddingDim, cfg.DTypeOf(i), rng)
	}
	return AssembleModel(cfg, bottom, top, tables)
}

// AssembleModel builds a model over existing parameters with private
// activation/gradient buffers: the view hybrid ranks and evaluation
// compose. tables may be nil for a dense-only replica driven
// through ForwardPooled/BackwardPooled.
func AssembleModel(cfg Config, bottom, top *nn.MLP, tables []*embedding.Table) *Model {
	return &Model{Cfg: cfg, Bottom: bottom, Top: top, Tables: tables,
		sparse: newSparseView(tables)}
}

// Clone returns a deep copy with independent parameters.
func (m *Model) Clone() *Model {
	tables := make([]*embedding.Table, len(m.Tables))
	for i, t := range m.Tables {
		tables[i] = t.Clone()
	}
	return AssembleModel(m.Cfg, m.Bottom.Clone(), m.Top.Clone(), tables)
}

// Forward computes logits for the batch and caches activations for
// BackwardPooled. The returned slice is valid until the next Forward call.
func (m *Model) Forward(b *MiniBatch) []float32 {
	return m.ForwardPooled(b.Dense, m.lookup(b))
}

// lookup sum-pools every table over the batch into the model's pooled
// arena (one B×d matrix per sparse feature) and returns it.
func (m *Model) lookup(b *MiniBatch) []*tensor.Matrix {
	B := b.Batch()
	s := m.Cfg.NumSparse()
	if len(m.pooled) != s || (s > 0 && m.pooled[0].Rows != B) {
		m.pooled = make([]*tensor.Matrix, s)
		for i := range m.pooled {
			m.pooled[i] = tensor.New(B, m.Cfg.EmbeddingDim)
		}
	}
	m.sparse.Lookup(b, m.pooled)
	return m.pooled
}

// ForwardPooled computes logits from a dense batch and externally
// produced pooled embeddings (one B×d matrix per sparse feature). This is
// the model-parallel entry point of the hybrid trainer, where pooled rows
// arrive from remote table shards via all-to-all rather than from this
// model's own tables; pair it with BackwardPooled. The returned slice is
// valid until the next forward pass.
func (m *Model) ForwardPooled(dense *tensor.Matrix, pooled []*tensor.Matrix) []float32 {
	B := dense.Rows
	s := m.Cfg.NumSparse()
	if len(pooled) != s {
		panic(fmt.Sprintf("core: %d pooled matrices, config wants %d", len(pooled), s))
	}
	for i, p := range pooled {
		if p.Rows != B || p.Cols != m.Cfg.EmbeddingDim {
			panic(fmt.Sprintf("core: pooled[%d] is %dx%d, want %dx%d",
				i, p.Rows, p.Cols, B, m.Cfg.EmbeddingDim))
		}
	}
	m.pooledIn = pooled
	m.z = m.Bottom.Forward(dense)

	idim := m.Cfg.InteractionDim()
	if m.xTop == nil || m.xTop.Rows != B || m.xTop.Cols != idim {
		m.xTop = tensor.New(B, idim)
	}
	m.buildInteraction(B)

	out := m.Top.Forward(m.xTop)
	if cap(m.logits) < B {
		m.logits = make([]float32, B)
	}
	logits := m.logits[:B]
	for i := 0; i < B; i++ {
		logits[i] = out.At(i, 0)
	}
	return logits
}

// gatherVecs copies example r's interaction vectors — z, then each
// pooled row — into the vecs arena as s+1 contiguous rows of d, the
// layout tensor.DotPairs takes, and returns it.
func (m *Model) gatherVecs(r int) []float32 {
	d := m.Cfg.EmbeddingDim
	n := (len(m.pooledIn) + 1) * d
	if len(m.vecs) != n {
		m.vecs, m.dvecs = make([]float32, n), make([]float32, n)
	}
	copy(m.vecs[:d], m.z.Row(r))
	for i, p := range m.pooledIn {
		copy(m.vecs[(i+1)*d:(i+2)*d], p.Row(r))
	}
	return m.vecs
}

// buildInteraction fills xTop from z and pooledIn according to the config.
func (m *Model) buildInteraction(B int) {
	d := m.Cfg.EmbeddingDim
	s := m.Cfg.NumSparse()
	switch m.Cfg.Interaction {
	case DotProduct:
		// Layout per row: [z (d) | dot(v_i, v_j) for i<j over v_0=z, v_1..s=pooled]
		for r := 0; r < B; r++ {
			row := m.xTop.Row(r)
			copy(row[:d], m.z.Row(r))
			tensor.DotPairs(row[d:], m.gatherVecs(r), s+1, d)
		}
	default: // Concat: [z | pooled_0 | ... | pooled_{s-1}]
		for r := 0; r < B; r++ {
			row := m.xTop.Row(r)
			copy(row[:d], m.z.Row(r))
			for i := 0; i < s; i++ {
				copy(row[(i+1)*d:(i+2)*d], m.pooledIn[i].Row(r))
			}
		}
	}
}

// BackwardPooled propagates per-example logit gradients through the top
// MLP, the interaction, and the bottom MLP, and returns the gradients
// w.r.t. the pooled embedding matrices supplied to ForwardPooled (one
// B×d matrix per sparse feature). MLP gradients accumulate into the nn
// layers; the hybrid trainer ships the returned matrices back to the
// owning table shards via all-to-all. The matrices are owned by the model
// and valid until the next backward pass.
func (m *Model) BackwardPooled(dLogits []float32) []*tensor.Matrix {
	if m.pooledIn == nil {
		panic("core: BackwardPooled before ForwardPooled")
	}
	B := m.z.Rows
	if m.dOut == nil || m.dOut.Rows != B {
		m.dOut = tensor.New(B, 1)
	}
	for i := 0; i < B; i++ {
		m.dOut.Set(i, 0, dLogits[i])
	}
	dXTop := m.Top.Backward(m.dOut)

	m.backwardInteraction(dXTop)
	// The bottom stack reads the dense features: their gradient has no
	// reader, so its input-gradient GEMM is skipped.
	m.Bottom.BackwardParams(m.dZ)
	return m.dPooled
}

// backwardInteraction fills dZ and dPooled from the interaction output's
// gradient dXTop (B×interactionDim) according to the config.
func (m *Model) backwardInteraction(dXTop *tensor.Matrix) {
	B := dXTop.Rows
	d := m.Cfg.EmbeddingDim
	s := m.Cfg.NumSparse()
	if m.dZ == nil || m.dZ.Rows != B || len(m.dPooled) != s {
		m.dPooled = make([]*tensor.Matrix, s)
		for i := range m.dPooled {
			m.dPooled[i] = tensor.New(B, d)
		}
		m.dZ = tensor.New(B, d)
	}

	switch m.Cfg.Interaction {
	case DotProduct:
		// Per example the gradients start at zero, take the direct z
		// gradient, then the pair terms, and overwrite the example's dZ
		// and dPooled rows whole.
		for r := 0; r < B; r++ {
			g := dXTop.Row(r)
			vecs, dvecs := m.gatherVecs(r), m.dvecs
			clear(dvecs)
			tensor.AddTo(dvecs[:d], g[:d])
			tensor.DotPairsBackward(dvecs, vecs, g[d:], s+1, d)
			copy(m.dZ.Row(r), dvecs[:d])
			for i, dp := range m.dPooled {
				copy(dp.Row(r), dvecs[(i+1)*d:(i+2)*d])
			}
		}
	default:
		m.dZ.Zero()
		for i := range m.dPooled {
			m.dPooled[i].Zero()
		}
		for r := 0; r < B; r++ {
			g := dXTop.Row(r)
			tensor.AddTo(m.dZ.Row(r), g[:d])
			for i := 0; i < s; i++ {
				tensor.AddTo(m.dPooled[i].Row(r), g[(i+1)*d:(i+2)*d])
			}
		}
	}
}

// DenseParams returns the MLP parameters (bottom then top) for optimizers
// and checkpoints.
func (m *Model) DenseParams() []nn.Param {
	return append(m.Bottom.Params(), m.Top.Params()...)
}

// ZeroGrad clears accumulated MLP gradients.
func (m *Model) ZeroGrad() {
	m.Bottom.ZeroGrad()
	m.Top.ZeroGrad()
}

// Predict runs Forward and converts logits to probabilities.
func (m *Model) Predict(b *MiniBatch) []float32 {
	logits := m.Forward(b)
	probs := make([]float32, len(logits))
	nn.SigmoidVec(probs, logits)
	return probs
}
