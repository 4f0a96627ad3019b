package recsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/benchreport"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/tensor"
)

// TestVectorKernelsTrainSameModel trains with the vector kernels on and
// off and requires the same model bit for bit: the loss of every step,
// every dense weight and AdaGrad accumulator, and every embedding row and
// row accumulator. It covers a dense_heavy-shaped model (the benchmark's
// GEMM-bound workload) and the mid-size BenchStepConfig model, each on
// the single-process trainer and on a 2-rank hybrid trainer.
func TestVectorKernelsTrainSameModel(t *testing.T) {
	defer tensor.SetVectorKernels(tensor.SetVectorKernels(true))
	if !tensor.SetVectorKernels(true) { // on only where the CPU has them
		t.Skip("no vector kernels on this CPU")
	}
	denseHeavy := ModelConfig{
		Name: "dense_heavy", DenseFeatures: 256, Sparse: core.UniformSparse(4, 10000, 2),
		EmbeddingDim: 32, BottomMLP: []int{512, 256}, TopMLP: []int{512, 256}, Interaction: InteractionDot,
	}
	steps := 50
	if raceDetectorEnabled {
		// The instrumented Go kernels make the full run take minutes;
		// the plain run covers all 50 steps.
		steps = 10
	}
	for _, c := range []struct {
		name  string
		cfg   ModelConfig
		batch int
	}{
		{"dense_heavy", denseHeavy, 64},
		{"bench_step", benchreport.BenchStepConfig(), 128},
	} {
		batches := make([]*MiniBatch, steps)
		gen := NewGenerator(c.cfg, 2)
		for i := range batches {
			batches[i] = gen.NextBatch(c.batch)
		}
		for _, ranks := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/ranks=%d", c.name, ranks), func(t *testing.T) {
				train := func(vector bool) ([]float64, *ckpt.ModelState) {
					defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
					losses := make([]float64, steps)
					if ranks == 1 {
						tr := NewTrainer(NewModel(c.cfg, 1), TrainerConfig{LR: 0.05})
						for i, b := range batches {
							losses[i] = tr.Step(b)
						}
						return losses, tr.CkptState()
					}
					ht, err := hybrid.New(c.cfg, hybrid.Config{Ranks: ranks, LR: 0.05, Seed: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer ht.Close()
					for i, b := range batches {
						if losses[i], _, err = ht.Step(b); err != nil {
							t.Fatal(err)
						}
					}
					return losses, ht.CkptState()
				}
				wantLoss, want := train(false)
				gotLoss, got := train(true)
				for i := range wantLoss {
					if math.Float64bits(gotLoss[i]) != math.Float64bits(wantLoss[i]) {
						t.Fatalf("step %d: loss %v with vector kernels, %v without", i, gotLoss[i], wantLoss[i])
					}
				}
				for i := range want.Dense {
					requireBits(t, fmt.Sprintf("dense parameter %d", i), got.Dense[i], want.Dense[i])
					requireBits(t, fmt.Sprintf("dense accumulator %d", i), got.DenseAccum[i], want.DenseAccum[i])
				}
				for i := range want.Tables {
					requireBits(t, fmt.Sprintf("table %d", i), got.Tables[i].Weights.Data, want.Tables[i].Weights.Data)
					requireBits(t, fmt.Sprintf("table %d accumulator", i), got.SparseAccum[i], want.SparseAccum[i])
				}
			})
		}
	}
}

func requireBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v with vector kernels, %v without", what, i, got[i], want[i])
		}
	}
}
