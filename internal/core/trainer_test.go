package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/xrand"
)

// TestLookupVolumeMatchesConfig: the generator's ids per example land
// near the configured mean pooled lengths, and a training run over them
// charges the tables' access counters each bag's distinct rows.
func TestLookupVolumeMatchesConfig(t *testing.T) {
	cfg := core.Config{
		Name:          "lookup-volume",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.DotProduct,
	}
	tr := core.NewTrainer(core.NewModel(cfg, xrand.New(12)), core.TrainerConfig{LR: 0.05})
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	const iters, batch = 20, 128
	var mb *core.MiniBatch
	var ids, unique uint64
	for i := 0; i < iters; i++ {
		mb = gen.NextBatchInto(batch, mb)
		for _, bag := range mb.Bags {
			ids += uint64(bag.TotalLookups())
			rows := make(map[int32]bool)
			for _, ix := range bag.Indices {
				rows[ix] = true
			}
			unique += uint64(len(rows))
		}
		tr.Step(mb)
	}
	perExample := float64(ids) / (iters * batch)
	want := cfg.LookupsPerExample()
	// The generator's rescaled power law lands near the configured mean.
	if perExample < want*0.4 || perExample > want*2.0 {
		t.Errorf("observed %.1f lookups/example, configured %.1f", perExample, want)
	}
	// The tables' counters meter physical row reads: each step reads a
	// bag's distinct rows once.
	var lookups uint64
	for _, tab := range tr.Model.Tables {
		lookups += tab.Lookups()
	}
	if lookups != unique {
		t.Errorf("tables counted %d row reads, the batches hold %d distinct rows per bag (%d ids)", lookups, unique, ids)
	}
}
