// Package core implements the deep learning recommendation model (DLRM)
// that the paper characterizes (Fig 3): a bottom MLP over dense features,
// a set of embedding tables over sparse (categorical) features, a feature
// interaction (concatenation or pairwise dot product), and a top MLP
// producing a click-through-rate logit.
//
// The package provides the full training loop — forward, loss, backward,
// optimizer application — in pure Go, so the paper's model-quality
// experiments (batch-size accuracy gap, hyper-parameter re-tuning) run on
// real gradients rather than a simulation. Hardware-efficiency experiments
// consume only the model Config through the perfmodel package.
package core

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// Interaction selects how dense and sparse representations are combined
// before the top MLP (§III-A3).
type Interaction int

const (
	// Concat concatenates the bottom-MLP output with every pooled
	// embedding.
	Concat Interaction = iota
	// DotProduct computes pairwise dot products among the bottom-MLP
	// output and all pooled embeddings, and concatenates the products
	// with the bottom-MLP output.
	DotProduct
)

// String implements fmt.Stringer.
func (i Interaction) String() string {
	switch i {
	case Concat:
		return "concat"
	case DotProduct:
		return "dot"
	default:
		return fmt.Sprintf("Interaction(%d)", int(i))
	}
}

// SparseFeature configures one categorical feature and its embedding
// table.
type SparseFeature struct {
	Name string
	// HashSize is the number of rows after the hashing trick
	// (§III-A2). Production values span 30 .. 20M+ (Fig 6).
	HashSize int
	// MeanPooled is the mean number of activated indices (lookups)
	// per example for this feature (Fig 7). Synthetic data generation
	// and the hardware cost model both consume it.
	MeanPooled float64
	// MaxPooled truncates per-example lookups; the paper's test suite
	// uses 32 (§V).
	MaxPooled int
	// DType overrides the config-wide TableDType for this feature's
	// table. Zero (FP32) means "no override" — use Config.TableDType.
	DType tensor.DType
}

// Config fully describes a DLRM instance. It is the unit of exchange
// between the workload zoo, the real trainer, and the hardware cost
// model.
type Config struct {
	Name string
	// DenseFeatures is the width of the dense input vector (§V sweeps
	// 64..4096).
	DenseFeatures int
	Sparse        []SparseFeature
	// EmbeddingDim is the shared embedding dimension d.
	EmbeddingDim int
	// BottomMLP lists hidden-layer widths of the dense stack. Its
	// input width is DenseFeatures and its output width is forced to
	// EmbeddingDim so dot interaction is well-defined.
	BottomMLP []int
	// TopMLP lists hidden-layer widths of the top stack; a final
	// 1-wide logit layer is appended automatically.
	TopMLP      []int
	Interaction Interaction
	// TableDType is the lookup-path storage precision for every
	// embedding table (per-feature SparseFeature.DType overrides it).
	// FP32 (the zero value) keeps the historical full-precision
	// storage; BF16/FP16 store quantized replicas read by lookups while
	// optimizer math stays on fp32 masters (split-SGD).
	TableDType tensor.DType
}

// DTypeOf resolves the storage dtype of table ti: the per-feature
// override when set, the config-wide TableDType otherwise.
func (c *Config) DTypeOf(ti int) tensor.DType {
	if d := c.Sparse[ti].DType; d != tensor.FP32 {
		return d
	}
	return c.TableDType
}

// Validate checks structural invariants.
func (c *Config) Validate() error {
	if c.DenseFeatures <= 0 {
		return fmt.Errorf("core: DenseFeatures must be positive, got %d", c.DenseFeatures)
	}
	if c.EmbeddingDim <= 0 {
		return fmt.Errorf("core: EmbeddingDim must be positive, got %d", c.EmbeddingDim)
	}
	if len(c.Sparse) == 0 {
		return fmt.Errorf("core: at least one sparse feature required")
	}
	for i, s := range c.Sparse {
		if s.HashSize <= 0 {
			return fmt.Errorf("core: sparse[%d] %q hash size %d", i, s.Name, s.HashSize)
		}
		if s.MeanPooled <= 0 {
			return fmt.Errorf("core: sparse[%d] %q mean pooled %v", i, s.Name, s.MeanPooled)
		}
		if s.MaxPooled <= 0 {
			return fmt.Errorf("core: sparse[%d] %q max pooled %d", i, s.Name, s.MaxPooled)
		}
	}
	return nil
}

// NumSparse returns the number of sparse features (= embedding tables).
func (c *Config) NumSparse() int { return len(c.Sparse) }

// BottomDims returns the full bottom-MLP dimension list including input
// and output widths.
func (c *Config) BottomDims() []int {
	dims := append([]int{c.DenseFeatures}, c.BottomMLP...)
	return append(dims, c.EmbeddingDim)
}

// InteractionDim returns the width of the top MLP's input.
func (c *Config) InteractionDim() int {
	s := c.NumSparse()
	switch c.Interaction {
	case DotProduct:
		// C(S+1, 2) pairwise products + the dense vector itself.
		return (s+1)*s/2 + c.EmbeddingDim
	default:
		return (s + 1) * c.EmbeddingDim
	}
}

// TopDims returns the full top-MLP dimension list including the
// interaction input width and the final logit.
func (c *Config) TopDims() []int {
	dims := append([]int{c.InteractionDim()}, c.TopMLP...)
	return append(dims, 1)
}

// EmbeddingBytes returns the total lookup-path embedding storage the
// config implies, honoring per-table dtypes: reduced-precision tables
// count their quantized replica width. This is the capacity number that
// drives placement decisions.
func (c *Config) EmbeddingBytes() int64 {
	var b int64
	for i, s := range c.Sparse {
		b += int64(s.HashSize) * int64(c.EmbeddingDim) * int64(c.DTypeOf(i).Bytes())
	}
	return b
}

// LookupsPerExample returns the expected total embedding-row accesses one
// example performs (Σ mean pooled lengths).
func (c *Config) LookupsPerExample() float64 {
	var l float64
	for _, s := range c.Sparse {
		l += s.MeanPooled
	}
	return l
}

// MLPFLOPsPerExample returns forward multiply-add FLOPs per example across
// both MLP stacks (2·Σ in·out). Backward costs roughly 2× forward; the
// cost model applies that multiplier.
func (c *Config) MLPFLOPsPerExample() int64 {
	var f int64
	dims := c.BottomDims()
	for i := 0; i+1 < len(dims); i++ {
		f += 2 * int64(dims[i]) * int64(dims[i+1])
	}
	dims = c.TopDims()
	for i := 0; i+1 < len(dims); i++ {
		f += 2 * int64(dims[i]) * int64(dims[i+1])
	}
	return f
}

// InteractionFLOPsPerExample returns the FLOPs of the feature-interaction
// stage for one example.
func (c *Config) InteractionFLOPsPerExample() int64 {
	s := int64(c.NumSparse())
	if c.Interaction == DotProduct {
		return (s + 1) * s / 2 * 2 * int64(c.EmbeddingDim)
	}
	return 0 // concat is a copy
}

// DenseParamBytes returns the fp32 bytes of MLP (dense) parameters, the
// payload of one dense gradient all-reduce.
func (c *Config) DenseParamBytes() int64 {
	var n int64
	dims := c.BottomDims()
	for i := 0; i+1 < len(dims); i++ {
		n += int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])
	}
	dims = c.TopDims()
	for i := 0; i+1 < len(dims); i++ {
		n += int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])
	}
	return n * 4
}

// TableStats converts the sparse feature list into the size/access
// statistics that sharding and placement operate on.
func (c *Config) TableStats() []TableStatView {
	stats := make([]TableStatView, len(c.Sparse))
	for i, s := range c.Sparse {
		stats[i] = TableStatView{
			Index:      i,
			Name:       s.Name,
			HashSize:   s.HashSize,
			Bytes:      int64(s.HashSize) * int64(c.EmbeddingDim) * int64(c.DTypeOf(i).Bytes()),
			MeanPooled: s.MeanPooled,
		}
	}
	return stats
}

// ShardTables assigns every table to one of n owners with the §III-A2
// greedy partitioner (bytes and lookups weighted equally) and returns each
// table's owner and each owner's tables, ascending. It is deterministic in
// (config, n), so a rebuilt or resized trainer re-derives it on restore.
func (c *Config) ShardTables(n int) (owner []int, owned [][]int) {
	stats := make([]embedding.TableStat, c.NumSparse())
	for i, s := range c.TableStats() {
		stats[i] = embedding.TableStat{Index: s.Index, Bytes: s.Bytes, MeanPooled: s.MeanPooled}
	}
	asg, _ := embedding.TableWiseGreedy(stats, n, 0.5)
	owner = make([]int, len(stats))
	owned = make([][]int, n)
	for ti := range owner {
		owner[ti] = asg[ti]
		owned[asg[ti]] = append(owned[asg[ti]], ti)
	}
	return owner, owned
}

// TableStatView is the per-table summary used by placement and
// characterization code.
type TableStatView struct {
	Index      int
	Name       string
	HashSize   int
	Bytes      int64
	MeanPooled float64
}

// UniformSparse builds n identical sparse features, the §V test-suite
// shape: fixed hash size, fixed mean pooled lookups, truncation at 32.
func UniformSparse(n, hashSize int, meanPooled float64) []SparseFeature {
	feats := make([]SparseFeature, n)
	for i := range feats {
		feats[i] = SparseFeature{
			Name:       fmt.Sprintf("sparse_%d", i),
			HashSize:   hashSize,
			MeanPooled: meanPooled,
			MaxPooled:  32,
		}
	}
	return feats
}

// HumanBytes renders a byte count with a binary-unit suffix.
func HumanBytes(b int64) string {
	switch {
	case b >= 1<<40:
		return fmt.Sprintf("%.1f TB", float64(b)/(1<<40))
	case b >= 1<<30:
		return fmt.Sprintf("%.1f GB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}
