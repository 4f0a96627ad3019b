// Quickstart: build a small DLRM, train it on synthetic click data, and
// evaluate normalized entropy — the five-minute tour of the public API.
package main

import (
	"fmt"

	"repro"
)

func main() {
	cfg := recsim.ModelConfig{
		Name:          "quickstart",
		DenseFeatures: 16,
		Sparse: []recsim.SparseFeature{
			{Name: "user_id", HashSize: 5000, MeanPooled: 1, MaxPooled: 1},
			{Name: "item_history", HashSize: 20000, MeanPooled: 8, MaxPooled: 32},
			{Name: "page_category", HashSize: 300, MeanPooled: 2, MaxPooled: 8},
		},
		EmbeddingDim: 16,
		BottomMLP:    []int{64},
		TopMLP:       []int{64, 32},
		Interaction:  recsim.InteractionDot,
	}
	fmt.Printf("recsim %s\n%s\n", recsim.Version, recsim.Describe(cfg))

	model := recsim.NewModel(cfg, 42)
	trainer := recsim.NewTrainer(model, recsim.TrainerConfig{LR: 0.05})
	gen := recsim.NewGenerator(cfg, 43)

	for i := 0; i < 300; i++ {
		loss := trainer.Step(gen.NextBatch(128))
		if (i+1)%100 == 0 {
			fmt.Printf("iter %3d  training loss %.4f\n", i+1, loss)
		}
	}

	eval := recsim.Evaluate(model, gen.EvalSet(8, 256))
	fmt.Printf("held-out: logloss %.4f  NE %.4f  accuracy %.4f\n",
		eval.LogLoss, eval.NE, eval.Accuracy)
	if eval.NE < 1 {
		fmt.Println("NE < 1: the model beats the base-rate predictor.")
	}
}
