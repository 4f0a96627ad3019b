package recsim

import (
	"runtime"
	"testing"

	"repro/internal/benchreport"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/tensor"
)

// TestTrainStepZeroAlloc is the hot-path allocation budget: after warmup,
// one full training step (forward, interaction, backward, sparse scatter,
// dense + sparse optimizer updates) must not touch the heap. AllocsPerRun
// pins GOMAXPROCS to 1, so the kernels take their serial path and the
// result is deterministic. Any regression here means a per-step
// allocation crept back into tensor/nn/embedding/core.
func TestTrainStepZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()
	m := NewModel(cfg, 1)
	tr := NewTrainer(m, TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	batch := gen.NextBatch(128)
	// Warm every lazily-sized scratch buffer (activations, interaction
	// views, sparse-grad slabs, logit/grad buffers).
	for i := 0; i < 3; i++ {
		tr.Step(batch)
	}
	if avg := testing.AllocsPerRun(10, func() { tr.Step(batch) }); avg != 0 {
		t.Fatalf("Trainer.Step allocates %.1f objects per step at steady state, want 0", avg)
	}
}

// TestQuantizedStepZeroAlloc is the mixed-precision companion budget:
// a full hybrid-parallel step with bf16 embedding tables (split-SGD
// replica re-quantization on every touched row) and int8-compressed
// collective wires must not allocate — the wire codecs run through
// reusable scratch, and the table replicas are fixed slabs, so
// quantization adds no steady-state heap traffic.
func TestQuantizedStepZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()
	cfg.TableDType = tensor.BF16
	ht, err := hybrid.New(cfg, hybrid.Config{
		Ranks: 2, LR: 0.05, Seed: 1,
		WireA2A:       collective.WireINT8,
		WireAllReduce: collective.WireINT8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
	batch := gen.NextBatch(128)
	for i := 0; i < 3; i++ {
		if _, _, err := ht.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(10, func() { ht.Step(batch) }); avg != 0 {
		t.Fatalf("quantized hybrid step allocates %.1f objects per step at steady state, want 0", avg)
	}
}

// TestFanOutStepZeroAlloc holds the two step budgets with the table
// hand-off active: sparse_heavy's per-table batch shape (~26 ids × 128
// examples × dim 64, above the pool threshold) on small tables, at two
// Ps. testing.AllocsPerRun pins GOMAXPROCS to 1, where every kernel runs
// inline, so the steps are counted here the way it counts them.
func TestFanOutStepZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := benchreport.BenchStepConfig()
	cfg.Sparse = core.UniformSparse(4, 2000, 40)
	for i := range cfg.Sparse {
		cfg.Sparse[i].MaxPooled = 64
	}
	cfg.EmbeddingDim = 64
	batch := NewGenerator(cfg, 2).NextBatch(128)
	if work := len(batch.Bags[0].Indices) * cfg.EmbeddingDim; !tensor.RangeFansOut(2, work) {
		t.Fatalf("table work %d does not reach the hand-off", work)
	}
	allocsPerStep := func(step func()) uint64 {
		const warm, runs = 12, 20
		for i := 0; i < warm; i++ {
			step()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			step()
		}
		runtime.ReadMemStats(&after)
		return (after.Mallocs - before.Mallocs) / runs
	}

	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	if n := allocsPerStep(func() { tr.Step(batch) }); n != 0 {
		t.Errorf("Trainer.Step allocates %d objects per step with tables on the pool, want 0", n)
	}

	ht, err := hybrid.New(cfg, hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1, Overlap: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	if n := allocsPerStep(func() { ht.Step(batch) }); n != 0 {
		t.Errorf("overlapped hybrid step allocates %d objects per step with tables on the pool, want 0", n)
	}
}

// TestNextBatchIntoRecyclesBuffers checks the batch-recycling path reuses
// storage across draws of the same batch size.
func TestNextBatchIntoRecyclesBuffers(t *testing.T) {
	cfg := ModelConfig{
		Name:          "recycle",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(2, 1000, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := NewGenerator(cfg, 3)
	mb := gen.NextBatch(64)
	dense := mb.Dense
	labels := &mb.Labels[0]
	got := gen.NextBatchInto(64, mb)
	if got != mb || got.Dense != dense || &got.Labels[0] != labels {
		t.Fatal("NextBatchInto did not recycle the dense/label buffers")
	}
	if err := got.Validate(&cfg); err != nil {
		t.Fatalf("recycled batch invalid: %v", err)
	}
}
