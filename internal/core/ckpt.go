package core

import (
	"repro/internal/ckpt"
	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/optim"
)

// CkptStateOf assembles the checkpointable view of a trainer: one dense
// replica with its optimizer, the full table set, and the sparse steps
// that between them own every table. Optimizers without state leave
// DenseAccum and SparseAccum nil. Every slice aliases live memory:
// ckpt.Store saves stream from it and restores write back into it.
func CkptStateOf(step int, kind OptimizerKind, params []nn.Param, dense optim.Dense, tables []*embedding.Table, steps ...*SparseStep) *ckpt.ModelState {
	st := &ckpt.ModelState{Step: step, Optimizer: string(kind), DenseAccum: dense.Accum(), Tables: tables, Ranks: 1}
	for _, p := range params {
		st.Dense = append(st.Dense, p.Value)
	}
	for _, s := range steps {
		for _, ti := range s.owned {
			if acc := s.opt[ti].Accum(); acc != nil {
				if st.SparseAccum == nil {
					st.SparseAccum = make([][]float32, len(tables))
				}
				st.SparseAccum[ti] = acc
			}
		}
	}
	return st
}

// CkptState exports the trainer's live parameters and optimizer state as
// a checkpointable view (see CkptStateOf). Call only between steps.
func (t *Trainer) CkptState() *ckpt.ModelState {
	return CkptStateOf(t.iter, t.cfg.Optimizer, t.Model.DenseParams(), t.dense, t.Model.Tables, t.sparse)
}

// DirtyRows returns the per-table touched-row trackers the trainer feeds
// on every step (aligned with Model.Tables). ckpt.Store delta saves
// consume and reset them.
func (t *Trainer) DirtyRows() []*ckpt.Dirty { return t.sparse.Dirty() }

// SaveCheckpoint writes a checkpoint of the trainer into store,
// delegating the full-vs-delta choice to ckpt.Store.AutoSave: full when
// the store is empty or the delta chain has fullEvery links, incremental
// (touched rows only) otherwise.
func (t *Trainer) SaveCheckpoint(store *ckpt.Store, fullEvery int) (ckpt.SaveInfo, error) {
	return store.AutoSave(t.CkptState(), t.DirtyRows(), fullEvery)
}

// RestoreCheckpoint rebuilds the trainer's parameters, optimizer state,
// and step counter from the latest checkpoint in store. Training resumed
// from the restored state replays the exact uninterrupted loss curve
// (bit-identical) when the batch stream is replayed from the same step.
func (t *Trainer) RestoreCheckpoint(store *ckpt.Store) (ckpt.RestoreInfo, error) {
	st := t.CkptState()
	info, err := store.Restore(st)
	if err != nil {
		return info, err
	}
	t.iter = st.Step
	// The restored state matches the checkpoint tip exactly, so rows
	// touched since (and now reverted) need not ride the next delta.
	for _, d := range t.DirtyRows() {
		d.Reset()
	}
	return info, nil
}
