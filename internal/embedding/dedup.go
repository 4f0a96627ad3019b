package embedding

import "repro/internal/tensor"

// DedupIndex is the RecD-style within-batch unique-row view of a Bag.
// Production sparse traffic repeats rows heavily inside one mini-batch
// (the Zipf skew of §III-A2); RecD (Zhao et al.) exploits that by looking
// each unique row up once and scattering through an inverse index. Build
// extracts the view from a Bag:
//
//	Bag.Indices[k] == Unique[Remap[k]]   for every k
//
// with Unique in first-occurrence order. Dedup kernels that consume the
// view (BagForwardDedup, BagBackwardDedup) are bit-identical to their
// plain counterparts — the dedup changes memory traffic, not math — and
// first-occurrence order is SparseGrad's first-touch order, so optimizer
// application order is unchanged.
//
// A DedupIndex is reusable: Build retains its row-set and slices across
// batches, so steady-state rebuilds are allocation-free once capacities
// stabilize. It is not safe for concurrent Build calls.
type DedupIndex struct {
	Unique []int32 // unique row ids, first-occurrence order (the row-set's keys)
	Remap  []int32 // len(Bag.Indices); position of each index in Unique

	rows rowSet // row id -> position in Unique
}

// Build fills the view from the bag, reusing all internal storage.
func (d *DedupIndex) Build(bag Bag) {
	d.rows.reset()
	d.Remap = ensureLen(d.Remap, len(bag.Indices))
	for k, ix := range bag.Indices {
		d.Remap[k], _ = d.rows.slot(ix)
	}
	d.Unique = d.rows.keys
}

// Built reports whether the view holds a batch (an empty bag still counts
// as built after Build; a zero DedupIndex does not). Build's reset moves
// the row-set's generation off zero for good.
func (d *DedupIndex) Built() bool { return d.rows.gen != 0 }

// Ratio returns total lookups / unique lookups, the RecD dedup win. An
// all-unique batch yields exactly 1.
func (d *DedupIndex) Ratio() float64 {
	if len(d.Unique) == 0 {
		return 1
	}
	return float64(len(d.Remap)) / float64(len(d.Unique))
}

// ensureLen grows (without shrinking) buf to n elements.
func ensureLen[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// BagForwardDedup is the dedup counterpart of BagForwardInto: it gathers
// each unique row once from the table into the scratch's staging slab,
// then sum-pools every example from the compact staging copy. The pooled
// result is bit-identical to BagForwardInto (same rows added in the same
// order); the table is touched len(Unique) times instead of
// len(Indices), which is what the lookup counter charges — the counter
// meters physical row reads, and fewer of them is the point.
func (t *Table) BagForwardDedup(bag Bag, d *DedupIndex, out *tensor.Matrix, sc *Scratch) {
	if out.Rows != bag.Batch() || out.Cols != t.Dim {
		panic("embedding: dedup forward output shape mismatch")
	}
	dim := t.Dim
	sc.gather = ensureLen(sc.gather, len(d.Unique)*dim)
	if t.DType == tensor.FP32 {
		for u, ix := range d.Unique {
			copy(sc.gather[u*dim:(u+1)*dim], t.Weights.Row(int(ix)))
		}
	} else {
		// Decode each unique reduced-precision row once; pooling below
		// then adds the same decoded values the plain kernel's fused
		// adds produce, keeping the two paths bit-identical.
		for u, ix := range d.Unique {
			tensor.Decode(t.DType, sc.gather[u*dim:(u+1)*dim], t.halfRow(int(ix)))
		}
	}
	for i := 0; i < bag.Batch(); i++ {
		row := out.Row(i)
		for j := range row {
			row[j] = 0
		}
		rm := d.Remap[bag.Offsets[i]:bag.Offsets[i+1]]
		k := 0
		for ; k+2 <= len(rm); k += 2 {
			a := int(rm[k]) * dim
			b := int(rm[k+1]) * dim
			tensor.AddTo2(row, sc.gather[a:a+dim], sc.gather[b:b+dim])
		}
		if k < len(rm) {
			a := int(rm[k]) * dim
			tensor.AddTo(row, sc.gather[a:a+dim])
		}
	}
	t.lookups.Add(uint64(len(d.Unique)))
}

// BagBackwardDedup is the dedup counterpart of BagBackward for an empty
// acc (it panics otherwise): acc takes Unique as its rows, and each
// example's pooled-output gradient accumulates straight into acc's slab
// through Remap — no row-set probe per occurrence, no staging copy. The
// slab starts at +0 and every row receives the same additions in the
// plain kernel's order, and first-occurrence order is first-touch order,
// so the resulting SparseGrad — values and key order — is bit-identical
// to BagBackward's.
func (t *Table) BagBackwardDedup(bag Bag, d *DedupIndex, dOut *tensor.Matrix, acc *SparseGrad) {
	if dOut.Rows != bag.Batch() || dOut.Cols != t.Dim {
		panic("embedding: dedup backward grad shape mismatch")
	}
	dim := t.Dim
	slab := acc.adopt(d.Unique)
	for i := 0; i < bag.Batch(); i++ {
		g := dOut.Row(i)
		for _, u := range d.Remap[bag.Offsets[i]:bag.Offsets[i+1]] {
			tensor.AddTo(slab[int(u)*dim:(int(u)+1)*dim], g)
		}
	}
}
