// Package embedding implements the sparse side of the recommendation
// model: embedding tables accessed through the hashing trick, pooled
// multi-hot (EmbeddingBag) lookups, sparse gradients, and the sharding
// schemes (table-wise, row-wise) used to place tables across devices and
// parameter-server shards.
//
// In the paper (§III-A) each sparse feature owns a table of hashSize × dim
// learned vectors; a training example activates n indices per feature and
// the n vectors are sum-pooled into the feature's dense representation.
package embedding

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Scratch is per-worker state for the batched lookup path.
type Scratch struct {
	// gather is BagForwardDedup's staging slab, the unique rows' copy.
	// Grown to the largest unique×dim seen, never shrunk.
	gather []float32
}

// NewScratch returns an empty worker-local scratch.
func NewScratch() *Scratch { return &Scratch{} }

// Table is one embedding lookup table with hashSize rows of dim floats.
type Table struct {
	Name     string
	HashSize int
	Dim      int
	// Weights is the hashSize×dim parameter matrix. One sparse step
	// owns the table and is its only writer. With a reduced DType this
	// is the fp32 master copy: optimizer math runs here (split-SGD,
	// Kalamkar et al.) and the lookup path reads the quantized replica
	// below.
	Weights *tensor.Matrix
	// DType is the lookup-path storage precision. FP32 tables read
	// Weights directly; BF16/FP16 tables read half and must SyncRow
	// after every master-row update.
	DType tensor.DType
	// half is the hashSize×dim reduced-precision replica (nil for
	// fp32), kept in sync with Weights by SyncRow/SyncAll.
	half []uint16

	// lookups counts individual row accesses. It is atomic because a
	// registry snapshot reads it mid-step and forked generators share
	// their teacher's tables across goroutines. The trace package uses
	// it for the Fig 6/7 style access-frequency characterization.
	lookups atomic.Uint64
}

// NewTable allocates and initializes an fp32 table. Rows are
// initialized uniformly in ±1/√dim, the conventional DLRM scheme.
func NewTable(name string, hashSize, dim int, rng *xrand.RNG) *Table {
	return NewTableTyped(name, hashSize, dim, tensor.FP32, rng)
}

// NewTableTyped allocates a table whose lookup path stores dt. Reduced
// dtypes allocate the quantized replica alongside the fp32 master and
// seed it from the initial weights.
func NewTableTyped(name string, hashSize, dim int, dt tensor.DType, rng *xrand.RNG) *Table {
	if hashSize <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embedding: invalid table %s size %dx%d", name, hashSize, dim))
	}
	t := &Table{
		Name:     name,
		HashSize: hashSize,
		Dim:      dim,
		DType:    dt,
		Weights:  tensor.New(hashSize, dim),
	}
	bound := float32(1.0 / math.Sqrt(float64(dim)))
	tensor.UniformInit(t.Weights, bound, rng)
	if dt != tensor.FP32 {
		t.half = make([]uint16, hashSize*dim)
		t.SyncAll()
	}
	return t
}

// Clone deep-copies the table (master weights, reduced replica, dtype).
// The lookup counter starts fresh.
func (t *Table) Clone() *Table {
	c := &Table{
		Name:     t.Name,
		HashSize: t.HashSize,
		Dim:      t.Dim,
		DType:    t.DType,
		Weights:  t.Weights.Clone(),
	}
	if t.half != nil {
		c.half = make([]uint16, len(t.half))
		copy(c.half, t.half)
	}
	return c
}

// halfRow returns row ix of the reduced-precision replica.
func (t *Table) halfRow(ix int) []uint16 {
	return t.half[ix*t.Dim : (ix+1)*t.Dim]
}

// SyncRow re-quantizes row ix of the fp32 master into the reduced
// replica. Split-SGD: optimizers update the master and call this for
// every touched row, so quantization error never accumulates in the
// optimizer state. No-op for fp32 tables.
func (t *Table) SyncRow(ix int) {
	if t.half == nil {
		return
	}
	tensor.Encode(t.DType, t.halfRow(ix), t.Weights.Row(ix))
}

// SyncAll re-quantizes the entire table (bulk weight load, checkpoint
// restore) through the worker pool. No-op for fp32 tables.
func (t *Table) SyncAll() {
	if t.half == nil {
		return
	}
	tensor.ParallelEncode(t.DType, t.half, t.Weights.Data)
}

// FNV-1a 64-bit parameters (offset basis and prime).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashIndex maps an arbitrary categorical ID into [0, HashSize) using
// FNV-1a — the "hashing trick" of §III-A1 that bounds table size at the
// cost of collisions. The hash is computed inline over the eight
// little-endian bytes of rawID (bit-identical to hash/fnv over the same
// bytes) so the per-lookup hash.Hash64 heap allocation is gone.
func (t *Table) HashIndex(rawID uint64) int32 {
	h := uint64(fnvOffset64)
	for i := 0; i < 64; i += 8 {
		h ^= (rawID >> i) & 0xff
		h *= fnvPrime64
	}
	return int32(h % uint64(t.HashSize))
}

// Bytes returns the lookup-path storage footprint in bytes: the bytes
// the serving/forward path actually touches, which is what tier
// placement prices. Reduced-precision tables count the quantized
// replica width (the fp32 master is optimizer state, not lookup
// traffic).
func (t *Table) Bytes() int64 {
	return int64(t.HashSize) * int64(t.Dim) * int64(t.DType.Bytes())
}

// Lookups returns the cumulative number of row accesses served.
func (t *Table) Lookups() uint64 { return t.lookups.Load() }

// Bag is a batch of pooled lookups in offsets/indices form (one sparse
// feature, B examples). Example i activates
// Indices[Offsets[i]:Offsets[i+1]].
type Bag struct {
	Indices []int32
	Offsets []int32 // length B+1; Offsets[0] == 0
}

// NewBag builds a Bag from per-example index lists.
func NewBag(perExample [][]int32) Bag {
	b := Bag{Offsets: make([]int32, 1, len(perExample)+1)}
	for _, idxs := range perExample {
		b.Indices = append(b.Indices, idxs...)
		b.Offsets = append(b.Offsets, int32(len(b.Indices)))
	}
	return b
}

// Batch returns the number of examples in the bag.
func (b Bag) Batch() int { return len(b.Offsets) - 1 }

// TotalLookups returns the number of row accesses the bag requires.
func (b Bag) TotalLookups() int { return len(b.Indices) }

// Validate checks structural invariants and index bounds against a table.
func (b Bag) Validate(hashSize int) error {
	if len(b.Offsets) == 0 || b.Offsets[0] != 0 {
		return fmt.Errorf("embedding: bag offsets must start at 0")
	}
	for i := 1; i < len(b.Offsets); i++ {
		if b.Offsets[i] < b.Offsets[i-1] {
			return fmt.Errorf("embedding: bag offsets not monotone at %d", i)
		}
	}
	if int(b.Offsets[len(b.Offsets)-1]) != len(b.Indices) {
		return fmt.Errorf("embedding: bag final offset %d != len(indices) %d",
			b.Offsets[len(b.Offsets)-1], len(b.Indices))
	}
	for _, ix := range b.Indices {
		if ix < 0 || int(ix) >= hashSize {
			return fmt.Errorf("embedding: index %d out of [0,%d)", ix, hashSize)
		}
	}
	return nil
}

// BagForwardInto is the batched pooled-lookup kernel: it walks the whole
// mini-batch, sum-pooling each example's rows into out (B×dim), and
// charges the lookup counter. out must be pre-allocated with Batch()
// rows. The plain kernel stages nothing in sc; it takes one so its
// signature matches BagForwardDedup's.
func (t *Table) BagForwardInto(bag Bag, out *tensor.Matrix, sc *Scratch) {
	if out.Rows != bag.Batch() || out.Cols != t.Dim {
		panic(fmt.Sprintf("embedding: output shape %dx%d, want %dx%d",
			out.Rows, out.Cols, bag.Batch(), t.Dim))
	}
	for i := 0; i < bag.Batch(); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
		idxs := bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]]
		k := 0
		switch t.DType {
		case tensor.BF16:
			for ; k+2 <= len(idxs); k += 2 {
				tensor.AddBF16To2(row, t.halfRow(int(idxs[k])), t.halfRow(int(idxs[k+1])))
			}
			if k < len(idxs) {
				tensor.AddBF16To(row, t.halfRow(int(idxs[k])))
			}
		case tensor.FP16:
			for ; k+2 <= len(idxs); k += 2 {
				tensor.AddFP16To2(row, t.halfRow(int(idxs[k])), t.halfRow(int(idxs[k+1])))
			}
			if k < len(idxs) {
				tensor.AddFP16To(row, t.halfRow(int(idxs[k])))
			}
		default:
			for ; k+2 <= len(idxs); k += 2 {
				tensor.AddTo2(row, t.Weights.Row(int(idxs[k])), t.Weights.Row(int(idxs[k+1])))
			}
			if k < len(idxs) {
				tensor.AddTo(row, t.Weights.Row(int(idxs[k])))
			}
		}
	}
	t.lookups.Add(uint64(bag.TotalLookups()))
}

// SparseGrad accumulates per-row gradients for one table across a batch.
// With sum pooling, the gradient of every activated row in example i is
// the example's pooled-output gradient.
//
// Storage is a flat slab of rows whose slots the package's row-set
// assigns in first-touch order, so Reset retains every buffer: at steady
// state (Reset + re-accumulate each step) the accumulator performs zero
// allocations. Iteration order (ForEach, RowIDs) is first-touch order,
// which also makes optimizer application deterministic.
type SparseGrad struct {
	Dim  int
	rows rowSet    // row id -> slab slot; rows.keys is the first-touch order
	buf  []float32 // len(rows.keys)*Dim slab of gradient rows
}

// NewSparseGrad returns an empty accumulator for rows of width dim.
func NewSparseGrad(dim int) *SparseGrad {
	return &SparseGrad{Dim: dim}
}

// grabRow returns the slab row for ix, claiming and zeroing a fresh slot
// on first touch.
func (s *SparseGrad) grabRow(ix int32) []float32 {
	si, fresh := s.rows.slot(ix)
	lo := int(si) * s.Dim
	if !fresh {
		return s.buf[lo : lo+s.Dim]
	}
	need := lo + s.Dim
	if need <= cap(s.buf) {
		s.buf = s.buf[:need]
	} else {
		s.buf = append(s.buf, make([]float32, need-len(s.buf))...)
	}
	row := s.buf[lo:need]
	clear(row)
	return row
}

// adopt makes keys, which must be distinct, the rows of the empty
// accumulator in that order, and returns their zeroed slab for the
// caller to accumulate into.
func (s *SparseGrad) adopt(keys []int32) []float32 {
	if s.NumRows() != 0 {
		panic("embedding: dedup backward into a non-empty SparseGrad")
	}
	s.rows.adopt(keys)
	s.buf = ensureLen(s.buf, len(keys)*s.Dim)
	clear(s.buf)
	return s.buf
}

// Add accumulates g into row ix.
func (s *SparseGrad) Add(ix int32, g []float32) {
	tensor.AddTo(s.grabRow(ix), g)
}

// RowIDs returns the touched row ids in first-touch order. The slice is
// owned by the accumulator and valid until the next Reset.
func (s *SparseGrad) RowIDs() []int32 { return s.rows.keys }

// Slab returns the gradient rows back to back in RowIDs order: row k of
// the slab, [k*Dim, (k+1)*Dim), is the gradient of RowIDs()[k]. The
// slice is a read-only view owned by the accumulator, valid until the
// next Reset or accumulation.
func (s *SparseGrad) Slab() []float32 { return s.buf }

// ForEach visits every touched row in first-touch order.
func (s *SparseGrad) ForEach(fn func(ix int32, g []float32)) {
	for si, ix := range s.rows.keys {
		fn(ix, s.buf[si*s.Dim:(si+1)*s.Dim])
	}
}

// NumRows returns the number of distinct rows touched.
func (s *SparseGrad) NumRows() int { return len(s.rows.keys) }

// Reset clears the accumulator, retaining all allocated storage for
// reuse.
func (s *SparseGrad) Reset() {
	s.rows.reset()
	s.buf = s.buf[:0]
}

// BagBackward is the batched gradient-scatter kernel: it walks the whole
// mini-batch, accumulating each example's pooled-output gradient into the
// rows it activated. Reusing acc across steps (Reset between batches)
// makes the scatter allocation-free at steady state.
func (t *Table) BagBackward(bag Bag, dOut *tensor.Matrix, acc *SparseGrad) {
	if dOut.Rows != bag.Batch() || dOut.Cols != t.Dim {
		panic(fmt.Sprintf("embedding: grad shape %dx%d, want %dx%d",
			dOut.Rows, dOut.Cols, bag.Batch(), t.Dim))
	}
	for i := 0; i < bag.Batch(); i++ {
		g := dOut.Row(i)
		for _, ix := range bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]] {
			acc.Add(ix, g)
		}
	}
}
