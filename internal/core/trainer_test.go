package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/xrand"
)

// TestLookupVolumeMatchesConfig: the generator's mean pooled lengths feed
// through a training run to the tables' access counters.
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
	for i := 0; i < iters; i++ {
		mb = gen.NextBatchInto(batch, mb)
		tr.Step(mb)
	}
	var lookups uint64
	for _, tab := range tr.Model.Tables {
		lookups += tab.Lookups()
	}
	perExample := float64(lookups) / (iters * batch)
	want := cfg.LookupsPerExample()
	// The generator's rescaled power law lands near the configured mean.
	if perExample < want*0.4 || perExample > want*2.0 {
		t.Errorf("observed %.1f lookups/example, configured %.1f", perExample, want)
	}
}
