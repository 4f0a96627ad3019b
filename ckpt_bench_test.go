package recsim

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/benchreport"
	"repro/internal/ckpt"
)

// ckptBenchFixture trains one step of the shared bench model so the
// dirty trackers hold a realistic touched-row set, and returns the state
// view plus the per-table row ids for re-marking between delta saves.
func ckptBenchFixture() (*ckpt.ModelState, []*ckpt.Dirty, [][]int32) {
	cfg := benchreport.BenchStepConfig()
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	tr.Step(gen.NextBatch(128))
	dirty := tr.DirtyRows()
	touched := make([][]int32, len(dirty))
	for i, d := range dirty {
		ids := make([]int32, 0, d.Count())
		d.ForEach(func(r int32) { ids = append(ids, r) })
		touched[i] = ids
	}
	return tr.CkptState(), dirty, touched
}

// BenchmarkCkptSnapshot measures back-to-back saves of the bench model:
// a full snapshot vs the incremental delta carrying only one step's
// touched rows. A save returns after the snapshot, but it first waits for
// the previous save's background write, so with no training between
// saves an iteration costs the whole write, not the stall a training
// loop pays (SaveInfo.Wall, "ckpt/save_ns"). Each iteration deletes the
// previous checkpoint, published by then, so the store directory stays
// small.
func BenchmarkCkptSnapshot(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		st, _, _ := ckptBenchFixture()
		dir := b.TempDir()
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		var prev string
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Step++
			info, err := store.AutoSave(st, nil, 1)
			if err != nil {
				b.Fatal(err)
			}
			if prev != "" {
				if err := os.RemoveAll(filepath.Join(dir, prev)); err != nil {
					b.Fatal(err)
				}
			}
			prev = info.Name
		}
		b.StopTimer()
		b.SetBytes(latestBytes(b, store))
	})
	b.Run("delta", func(b *testing.B) {
		st, dirty, touched := ckptBenchFixture()
		dir := b.TempDir()
		store, err := ckpt.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := store.AutoSave(st, dirty, 1); err != nil {
			b.Fatal(err)
		}
		var prev string
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for ti, ids := range touched {
				dirty[ti].Mark(ids)
			}
			st.Step++
			info, err := store.AutoSave(st, dirty, 0)
			if err != nil {
				b.Fatal(err)
			}
			if prev != "" {
				if err := os.RemoveAll(filepath.Join(dir, prev)); err != nil {
					b.Fatal(err)
				}
			}
			prev = info.Name
		}
		b.StopTimer()
		b.SetBytes(latestBytes(b, store))
	})
}

// latestBytes reports the byte size of the newest checkpoint so the
// benchmark prints MB/s of checkpoint data written per save.
func latestBytes(b *testing.B, store *ckpt.Store) int64 {
	b.Helper()
	_, m, err := store.Latest()
	if err != nil {
		b.Fatal(err)
	}
	if m == nil {
		return 0
	}
	var bytes int64
	for _, e := range m.Entries {
		bytes += e.Bytes
	}
	return bytes
}

// TestCkptSteadyStateAllocs is the dirty-tracking allocation budget: the
// per-step Mark of one batch's touched rows, the ascending ForEach walk a
// delta encode performs, and the post-save Reset must not touch the heap.
// (TestTrainStepZeroAlloc separately proves the full training step stays
// zero-alloc with tracking enabled.)
func TestCkptSteadyStateAllocs(t *testing.T) {
	_, dirty, touched := ckptBenchFixture()
	var sink int32
	walk := func(r int32) { sink = r }
	if avg := testing.AllocsPerRun(10, func() {
		for ti, ids := range touched {
			dirty[ti].Mark(ids)
		}
		for _, d := range dirty {
			d.ForEach(walk)
		}
		for _, d := range dirty {
			d.Reset()
		}
	}); avg != 0 {
		t.Fatalf("dirty mark/walk/reset cycle allocates %.1f objects, want 0", avg)
	}
	_ = sink
}
