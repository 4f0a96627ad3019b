// Package ckpt implements durable checkpoint/restore for the training
// stack: sharded, content-hashed checkpoints of the embedding tables
// (one shard per table, grouped by the owning rank of the TableWiseGreedy
// layout), the dense MLP replica, and the optimizer state, written under
// a MANIFEST.json whose per-shard SHA-256 hashes roll up into a
// Merkle-style root that is re-verified on restore. A corrupted or
// truncated shard fails the restore loudly, naming the offending file.
//
// Checkpoints come in two kinds. A *full* checkpoint serializes every
// table row. A *delta* checkpoint serializes only the rows touched since
// the previous checkpoint — the touched-row sets fall out of the
// embedding.SparseGrad accumulators the trainers already maintain, fed
// into per-table Dirty bitmaps on the step hot path (allocation-free) —
// so snapshotting a huge, sparsely-touched table costs IO proportional
// to the update traffic, not the table size. Deltas chain back to their
// base through manifest links (each link pinned by the parent's Merkle
// root), and a periodic full checkpoint compacts the chain. Restoring a
// delta chain and writing a full checkpoint from the result is
// bit-identical — same Merkle root — as a full checkpoint written
// directly from the live state, which is the equivalence tests pin.
//
// The package is trainer-agnostic: core.Trainer and hybrid.Trainer
// export their live parameters as a ModelState (slices aliasing live
// memory, so saving streams straight from the arenas and restoring
// writes straight back into them) and attach Dirty trackers to their
// sparse-update paths.
package ckpt

import (
	"fmt"
	"math/bits"

	"repro/internal/embedding"
)

// ModelState is the checkpointable view of a trainer: every slice
// aliases live parameter or optimizer memory, so a Store save reads the
// training state in place (between steps) and a restore writes it back
// in place. Build it once per trainer and reuse it.
type ModelState struct {
	// Step is the iteration count the state belongs to. Trainers set it
	// before saving; Store.Restore overwrites it with the restored step.
	Step int
	// Optimizer is the optimizer kind ("sgd", "adagrad"); restore
	// refuses a checkpoint written under a different optimizer, since
	// the accumulator state would be meaningless.
	Optimizer string
	// Dense aliases the dense parameter values (bottom then top MLP).
	Dense [][]float32
	// DenseAccum aliases the dense Adagrad accumulators, aligned with
	// Dense; nil under SGD.
	DenseAccum [][]float32
	// Tables is the full embedding table set, in config order.
	Tables []*embedding.Table
	// SparseAccum aliases each table's row-wise Adagrad accumulator
	// (length HashSize), aligned with Tables; nil under SGD.
	SparseAccum [][]float32
	// Owner maps each table to the rank that owns (and wrote) its
	// shard — manifest metadata documenting the TableWiseGreedy layout.
	// Nil means single-process (rank 0 owns everything).
	Owner []int
	// Ranks is the world size at save time (informational; restore is
	// rank-elastic because shards are per-table).
	Ranks int
}

// ownerOf returns the rank owning table ti.
func (st *ModelState) ownerOf(ti int) int {
	if ti < len(st.Owner) {
		return st.Owner[ti]
	}
	return 0
}

// rowAccum returns table ti's optimizer accumulator, or nil.
func (st *ModelState) rowAccum(ti int) []float32 {
	if ti < len(st.SparseAccum) {
		return st.SparseAccum[ti]
	}
	return nil
}

// validate checks internal shape consistency so save/restore can trust
// the state's own geometry.
func (st *ModelState) validate() error {
	if st.Optimizer == "" {
		return fmt.Errorf("ckpt: state has no optimizer kind")
	}
	if len(st.DenseAccum) != 0 && len(st.DenseAccum) != len(st.Dense) {
		return fmt.Errorf("ckpt: %d dense accumulators for %d params", len(st.DenseAccum), len(st.Dense))
	}
	for i, acc := range st.DenseAccum {
		if len(acc) != len(st.Dense[i]) {
			return fmt.Errorf("ckpt: dense accumulator %d length %d != param %d", i, len(acc), len(st.Dense[i]))
		}
	}
	for ti, tab := range st.Tables {
		if acc := st.rowAccum(ti); acc != nil && len(acc) != tab.HashSize {
			return fmt.Errorf("ckpt: table %d accumulator length %d != %d rows", ti, len(acc), tab.HashSize)
		}
	}
	return nil
}

// Dirty is a touched-row bitmap for one embedding table, the incremental
// side of delta checkpoints. Trainers Mark the row ids of every applied
// SparseGrad (allocation-free; the ids are already deduplicated per
// step), and a Store save serializes the marked rows and Resets the
// tracker. Rows iterate in ascending order, keeping delta files a
// deterministic function of the state they capture.
type Dirty struct {
	rows  int
	count int
	bits  []uint64
}

// NewDirty returns a tracker for a table with the given row count.
func NewDirty(rows int) *Dirty {
	return &Dirty{rows: rows, bits: make([]uint64, (rows+63)/64)}
}

// Mark records the given rows as touched. Marking an already-marked row
// is a no-op; Mark never allocates.
func (d *Dirty) Mark(ids []int32) {
	for _, id := range ids {
		w, b := id>>6, uint(id&63)
		if d.bits[w]&(1<<b) == 0 {
			d.bits[w] |= 1 << b
			d.count++
		}
	}
}

// MarkAll marks every row (forces the next delta to carry the full
// table).
func (d *Dirty) MarkAll() {
	for i := range d.bits {
		d.bits[i] = ^uint64(0)
	}
	// Clear the padding bits past the last row so ForEach stays in range.
	if tail := d.rows & 63; tail != 0 {
		d.bits[len(d.bits)-1] = (1 << uint(tail)) - 1
	}
	d.count = d.rows
}

// Count returns the number of touched rows.
func (d *Dirty) Count() int { return d.count }

// Rows returns the tracked table's row count.
func (d *Dirty) Rows() int { return d.rows }

// Reset clears the tracker, retaining storage.
func (d *Dirty) Reset() {
	clear(d.bits)
	d.count = 0
}

// ForEach visits the touched rows in ascending order.
func (d *Dirty) ForEach(fn func(row int32)) {
	for w, word := range d.bits {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(int32(w*64 + b))
			word &^= 1 << uint(b)
		}
	}
}
