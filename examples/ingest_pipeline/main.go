// Example ingest_pipeline materializes a sharded on-disk dataset, then
// trains both the single-process and the hybrid-parallel trainer from it
// through the staged ingestion pipeline — parallel shard decode, bounded
// shuffle, RecD-style within-batch dedup, and a recycled prefetch ring —
// printing the per-stage meters the ingest_scaling experiment sweeps.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

func main() {
	cfg := recsim.ModelConfig{
		Name:          "ingest-example",
		DenseFeatures: 16,
		Sparse:        recsim.UniformSparse(4, 5000, 4),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   recsim.InteractionDot,
	}

	// 1. Materialize: the deterministic generator writes shard files plus
	// a manifest (equal seeds write bit-identical datasets).
	dir, err := os.MkdirTemp("", "ingest_example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	gen := recsim.NewGenerator(cfg, 42)
	if err := gen.WriteShards(dir, 4, 1024); err != nil {
		log.Fatal(err)
	}

	ds, err := recsim.OpenDataset(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer ds.Close()
	fmt.Printf("dataset: %d examples in %d shards (%d bytes)\n\n",
		ds.Examples(), len(ds.Manifest.Shards), ds.Bytes())

	// 2. Single-process trainer from disk, dedup on.
	pipe, err := recsim.OpenIngestPipeline(ds, cfg, recsim.IngestOptions{
		BatchSize: 128, Readers: 2, Dedup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	tr := recsim.NewTrainer(recsim.NewModel(cfg, 1), recsim.TrainerConfig{LR: 0.05})
	loss, steps, err := recsim.TrainFrom(tr, pipe, 50)
	if err != nil {
		log.Fatal(err)
	}
	m := pipe.Meters()
	pipe.Close()
	fmt.Printf("single trainer: %d steps from disk, mean loss %.4f\n", steps, loss)
	fmt.Printf("  meters: read %.1f MB/s, dedup ratio %.2f, starved %.1f%%, ring occupancy %.2f\n\n",
		m.ReadMBps(), m.DedupRatio(), 100*m.StarvationFrac(), m.Occupancy())

	// 3. The same interface feeds the hybrid-parallel engine.
	pipe2, err := recsim.OpenIngestPipeline(ds, cfg, recsim.IngestOptions{
		BatchSize: 128, Readers: 2, Dedup: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer pipe2.Close()
	ht, err := recsim.NewHybridTrainer(cfg, recsim.HybridConfig{Ranks: 2, LR: 0.05, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer ht.Close()
	hLoss, hSteps, err := recsim.TrainFrom(ht, pipe2, 25)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hybrid trainer: %d ranks, %d steps from disk, mean loss %.4f\n",
		ht.Ranks(), hSteps, hLoss)
}
