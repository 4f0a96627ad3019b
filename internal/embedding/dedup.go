package embedding

import (
	"slices"

	"repro/internal/tensor"
)

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
	d.Remap = ensureLen(d.Remap, len(bag.Indices))
	d.rows.fill(bag.Indices, d.Remap)
	d.Unique = d.rows.keys
}

// Built reports whether the view holds a batch (an empty bag still counts
// as built after Build; a zero DedupIndex does not). Build's reset moves
// the row-set's generation off zero for good.
func (d *DedupIndex) Built() bool { return d.rows.gen != 0 }

// ensureLen grows (without shrinking) buf to n elements. It grows by
// append's factor, not to n exactly, so a buffer whose need creeps up
// from batch to batch (the unique rows of a bag) reallocates a
// logarithmic number of times, not at every new maximum.
func ensureLen[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// gatherAhead and gatherBlock are BagForwardDedup's fp32 prefetch
// distance and block, in unique rows: those RowWiseAdagrad.Apply uses on
// the same kind of row list. With cold caches over sparse_heavy's
// tables, distances 16 to 128 and blocks 4 to 16 were flat within noise
// (CHANGES.md).
const gatherAhead, gatherBlock = 32, 8

// BagForwardDedup is the training step's lookup kernel, the dedup
// counterpart of BagForwardInto: it gathers each unique row once from
// the table into the scratch's staging slab, then sum-pools every
// example from the compact staging copy. The pooled result is
// bit-identical to BagForwardInto (same rows added in the same order);
// the table is touched len(Unique) times instead of len(Indices), which
// is what the lookup counter charges — the counter meters physical row
// reads, and fewer of them is the point.
//
// On an fp32 table it prefetches the first gatherAhead unique rows up
// front, then at the start of each gatherBlock rows it copies, the
// gatherBlock rows gatherAhead further on. A prefetch moves no value, so
// the gather copies the same bits.
func (t *Table) BagForwardDedup(bag Bag, d *DedupIndex, out *tensor.Matrix, sc *Scratch) {
	if out.Rows != bag.Batch() || out.Cols != t.Dim {
		panic("embedding: dedup forward output shape mismatch")
	}
	dim := t.Dim
	sc.gather = ensureLen(sc.gather, len(d.Unique)*dim)
	if t.DType == tensor.FP32 {
		tensor.PrefetchRows(t.Weights.Data, d.Unique[:min(gatherAhead, len(d.Unique))], dim)
		for u, ix := range d.Unique {
			if a := u + gatherAhead; u%gatherBlock == 0 && a < len(d.Unique) {
				tensor.PrefetchRows(t.Weights.Data, d.Unique[a:min(a+gatherBlock, len(d.Unique))], dim)
			}
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
		poolRows(out.Row(i), sc.gather, d.Remap[bag.Offsets[i]:bag.Offsets[i+1]])
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
	slab := acc.adopt(d.Unique)
	for i := 0; i < bag.Batch(); i++ {
		scatterRows(slab, d.Remap[bag.Offsets[i]:bag.Offsets[i+1]], dOut.Row(i))
	}
}

// poolRows sets row to the sum of the slab rows ids names, each
// len(row) wide and back to back in slab: row += a + b for each pair of
// ids in order, then row += a for an odd last one, onto +0 — the sums
// of one AddTo2 call per pair and an AddTo for the odd id. Rows of 8 or
// more take those calls, whose 8-aligned prefix is vector code; under 8
// the element loop runs inline, where a call per pair of ids would cost
// more than the adds it makes.
func poolRows(row, slab []float32, ids []int32) {
	dim := len(row)
	if dim >= 8 {
		clear(row)
		k := 0
		for ; k+2 <= len(ids); k += 2 {
			a, b := int(ids[k])*dim, int(ids[k+1])*dim
			tensor.AddTo2(row, slab[a:a+dim], slab[b:b+dim])
		}
		if k < len(ids) {
			a := int(ids[k]) * dim
			tensor.AddTo(row, slab[a:a+dim])
		}
		return
	}
	// Two columns per pass, each summed in a register from +0: two
	// chains in flight, and each id read once per pair of columns. An
	// odd last column is summed twice and stored twice, to the same
	// bits.
	for j := 0; j < dim; j += 2 {
		j1 := min(j+1, dim-1)
		var s0, s1 float32
		k := 0
		for ; k+2 <= len(ids); k += 2 {
			a, b := int(ids[k])*dim, int(ids[k+1])*dim
			s0 += slab[a+j] + slab[b+j]
			s1 += slab[a+j1] + slab[b+j1]
		}
		if k < len(ids) {
			a := int(ids[k]) * dim
			s0 += slab[a+j]
			s1 += slab[a+j1]
		}
		row[j], row[j1] = s0, s1
	}
}

// scatterRows adds g to the slab rows slots names, each len(g) wide and
// back to back in slab, in slots' order: the adds of one AddTo call per
// slot, which rows of 8 or more still take. Under 8 the loop runs
// inline.
func scatterRows(slab []float32, slots []int32, g []float32) {
	dim := len(g)
	if dim >= 8 {
		for _, u := range slots {
			tensor.AddTo(slab[int(u)*dim:(int(u)+1)*dim], g)
		}
		return
	}
	for j, v := range g {
		for _, u := range slots {
			slab[int(u)*dim+j] += v
		}
	}
}
