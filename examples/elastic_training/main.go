// Elastic fault-tolerant training walkthrough: train the hybrid-parallel
// engine with durable checkpoints, kill a rank mid-run with the fault
// injection seam, watch recovery roll back to the last checkpoint and
// replay the deterministic batch stream, and verify the recovered loss
// curve is bit-identical to an uninterrupted run. Finishes by rejoining
// the checkpointed world with a different rank count — shards are keyed
// by table, not rank, so restore re-shards deterministically.
package main

import (
	"fmt"
	"os"

	"repro"
)

func main() {
	cfg := recsim.ModelConfig{
		Name:          "elastic-demo",
		DenseFeatures: 16,
		Sparse:        recsim.UniformSparse(8, 2000, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   recsim.InteractionDot,
	}
	fmt.Println(recsim.Describe(cfg))

	const steps, batch, ranks = 40, 64, 4

	// The replayable stream: recovery calls this with the rolled-back
	// step count and expects the exact same batches a fresh run would
	// see — seek, not re-sample.
	source := recsim.ReplaySource(cfg, 7, batch)

	run := func(store *recsim.CheckpointStore, faults *recsim.FaultSchedule) *recsim.ElasticResult {
		res, err := recsim.RunElastic(recsim.ElasticConfig{
			Cfg:       cfg,
			HC:        recsim.HybridConfig{Ranks: ranks, LR: 0.05, Seed: 1},
			Store:     store,
			CkptEvery: 8,
			FullEvery: 2, // every 2nd save is a full compaction
			Steps:     steps,
			Source:    source,
			Faults:    faults,
			Logf: func(format string, args ...any) {
				fmt.Printf("  "+format+"\n", args...)
			},
		})
		if err != nil {
			panic(err)
		}
		return res
	}

	// 1. Uninterrupted reference run.
	cleanDir, faultDir := tempStore("clean"), tempStore("faulted")
	defer os.RemoveAll(cleanDir)
	defer os.RemoveAll(faultDir)
	cleanStore, err := recsim.OpenCheckpointStore(cleanDir)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nclean run (%d steps, %d ranks):\n", steps, ranks)
	clean := run(cleanStore, nil)

	// 2. The same workload with rank 3 killed at step 21: the abort
	// poisons the world, recovery restores the step-16 checkpoint,
	// rebuilds all ranks, and replays from there.
	faults, err := recsim.ParseFaultSchedule(fmt.Sprintf("kill:%d@21", ranks-1))
	if err != nil {
		panic(err)
	}
	faultStore, err := recsim.OpenCheckpointStore(faultDir)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nfaulted run (kill rank %d at step 21):\n", ranks-1)
	faulted := run(faultStore, faults)
	fmt.Printf("  %d recoveries, %v rebuild+restore, %d checkpoint bytes re-read\n",
		faulted.Recoveries, faulted.RecoveryWall, faulted.BytesRestored)

	// 3. Bit-identity: every loss of the recovered curve must equal the
	// uninterrupted run exactly (float equality, not a tolerance).
	diverged := -1
	for i := range clean.Losses {
		if clean.Losses[i] != faulted.Losses[i] {
			diverged = i
			break
		}
	}
	if diverged >= 0 {
		fmt.Printf("\nFAIL: loss curves diverge at step %d\n", diverged)
		os.Exit(1)
	}
	fmt.Printf("\nloss curves bit-identical across all %d steps (final loss %.6f)\n",
		clean.Steps, faulted.Losses[steps-1])
	fmt.Printf("manifest Merkle roots: clean %s, faulted %s\n",
		short(clean.LastRoot), short(faulted.LastRoot))

	// 4. Rank-elastic rejoin: the same store restores into a 2-rank
	// world; the per-table shards re-shard onto the smaller world and
	// training continues from the checkpointed step.
	ht, info, err := recsim.RestoreHybridTrainer(cfg,
		recsim.HybridConfig{Ranks: 2, LR: 0.05, Seed: 1}, faultStore, nil)
	if err != nil {
		panic(err)
	}
	defer ht.Close()
	fmt.Printf("\nrejoined with 2 ranks: restored %v\n", info)
	src, release, err := source(ht.Iter())
	if err != nil {
		panic(err)
	}
	defer release()
	b, err := src.NextBatch()
	if err != nil {
		panic(err)
	}
	loss, _, err := ht.Step(b)
	if err != nil {
		panic(err)
	}
	fmt.Printf("step %d on the 2-rank world: loss %.6f\n", ht.Iter(), loss)
}

func tempStore(kind string) string {
	dir, err := os.MkdirTemp("", "elastic-training-"+kind+"-*")
	if err != nil {
		panic(err)
	}
	return dir
}

// short abbreviates a Merkle root for display.
func short(root string) string {
	if len(root) > 12 {
		return root[:12]
	}
	return root
}
