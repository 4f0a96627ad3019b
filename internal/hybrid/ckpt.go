package hybrid

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
)

// SetFaults arms a collective fault schedule on the trainer's world:
// kill/fail faults abort the step they strike (Step returns the
// collective.RankError on every rank), delay faults stall the scheduled
// rank. A schedule may be shared across rebuilds — fired faults stay
// fired, so a recovery run replaying the same steps is not re-struck. A
// fault on a rank the trainer does not have is refused.
func (t *Trainer) SetFaults(fs *collective.FaultSchedule) error { return t.world.SetFaults(fs) }

// CkptState exports the trainer's live parameters and optimizer state as
// a checkpointable view: rank 0's dense replica (replicas are kept
// bit-identical by the all-reduce) plus the full sharded table set with
// each owner's row-wise accumulator. Slices alias live memory — call
// only between steps.
func (t *Trainer) CkptState() *ckpt.ModelState {
	r0 := t.ranks[0]
	st := core.CkptStateOf(t.iter, t.HC.Optimizer, r0.params, r0.dense, t.tables, t.steps...)
	st.Owner, st.Ranks = t.owner, t.HC.Ranks
	return st
}

// SaveCheckpoint snapshots the trainer into store, whose background
// writer then publishes it, delegating the full-vs-delta choice to
// ckpt.Store.AutoSave. Saving a
// poisoned trainer is refused: after a mid-step abort the parameter
// state may be torn across ranks.
func (t *Trainer) SaveCheckpoint(store *ckpt.Store, fullEvery int) (ckpt.SaveInfo, error) {
	if t.failed != nil {
		return ckpt.SaveInfo{}, fmt.Errorf("hybrid: refusing checkpoint of failed trainer: %w", t.failed)
	}
	return store.AutoSave(t.CkptState(), t.dirty, fullEvery)
}

// RestoreCheckpoint loads the latest checkpoint in store into a healthy
// trainer: table shards and owner accumulators restore in place (the
// per-table layout is rank-elastic — TableWiseGreedy re-derives the same
// owners deterministically, and shards are keyed by table, not rank),
// rank 0's dense replica restores and is then copied to every other
// rank, and the step counter rewinds to the checkpoint step.
//
// It must run on a fresh (never-failed) trainer: recovery from a fault
// rebuilds via Restore, because an aborted world cannot rendezvous
// again.
func (t *Trainer) RestoreCheckpoint(store *ckpt.Store) (ckpt.RestoreInfo, error) {
	if t.failed != nil {
		return ckpt.RestoreInfo{}, fmt.Errorf("hybrid: cannot restore into failed trainer (rebuild with hybrid.New): %w", t.failed)
	}
	st := t.CkptState()
	info, err := store.Restore(st)
	if err != nil {
		return info, err
	}
	t.iter = st.Step
	t.syncReplicas()
	// The restored state matches the checkpoint tip exactly; stale marks
	// would only pad the next delta.
	for _, d := range t.dirty {
		d.Reset()
	}
	return info, nil
}

// syncReplicas copies rank 0's dense parameters and optimizer
// accumulators into every other rank — the in-process equivalent of the
// dense broadcast a restored worker performs on rejoin. Runs on the
// control thread between steps.
func (t *Trainer) syncReplicas() {
	r0 := t.ranks[0]
	a0 := r0.dense.Accum()
	for _, r := range t.ranks[1:] {
		for pi, p := range r.params {
			copy(p.Value, r0.params[pi].Value)
		}
		for ai, acc := range r.dense.Accum() {
			copy(acc, a0[ai])
		}
	}
}
