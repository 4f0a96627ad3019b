package benchreport

import (
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/xrand"
)

// benchBatch is the mini-batch size of the train-step benchmark (matches
// BenchmarkTrainStep in the repository root).
const benchBatch = 128

// BenchStepConfig is the mid-size DLRM shared by every train-step
// measurement in the repository — the root BenchmarkTrainStep and
// TestTrainStepZeroAlloc reference it too, so the committed BENCH reports
// stay comparable with `go test -bench`.
func BenchStepConfig() core.Config {
	return core.Config{
		Name:          "benchrun",
		DenseFeatures: 64,
		Sparse:        core.UniformSparse(8, 10000, 5),
		EmbeddingDim:  32,
		BottomMLP:     []int{128},
		TopMLP:        []int{128, 64},
		Interaction:   core.DotProduct,
	}
}

// UnfusedDenseLayer runs the pre-fusion dense-layer forward sequence
// (matmul, then bias and ReLU passes) — the ablation counterpart of
// tensor.MatMulBiasReLU, shared with the root benchmarks.
func UnfusedDenseLayer(y, x, w *tensor.Matrix, bias []float32) {
	tensor.MatMul(y, x, w)
	for r := 0; r < y.Rows; r++ {
		row := y.Row(r)
		tensor.AddTo(row, bias)
		for j, v := range row {
			if v < 0 {
				row[j] = 0
			}
		}
	}
}

// DefaultSpecs returns the standard benchmark set: the end-to-end
// training step, the kernel ablations behind the named speedups, the
// sparse-side primitives, and the batch-generation path. A non-empty
// filter skips non-matching specs before their fixtures are built, so
// filtered runs construct only what they measure.
func DefaultSpecs(filter string) []Spec {
	var specs []Spec
	want := func(names ...string) bool {
		if filter == "" {
			return true
		}
		for _, n := range names {
			if strings.Contains(n, filter) {
				return true
			}
		}
		return false
	}

	// End-to-end training step (fused kernels, zero steady-state allocs).
	if want("train_step") {
		cfg := BenchStepConfig()
		m := core.NewModel(cfg, xrand.New(1))
		tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		specs = append(specs, Spec{
			Name:          "train_step",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					tr.Step(batch)
				}
			},
		})
	}

	// The same training step with full span tracing AND flight recording
	// on: every phase of every step lands in a slab-backed ring, and the
	// recorder samples the step (meter/histogram deltas, detector
	// update) into its time-series ring. The telemetry_overhead speedup
	// (traced+recorded ns / untraced ns) is the whole observability
	// stack's cost — the acceptance bound is < 3%.
	if want("train_step_traced") {
		cfg := BenchStepConfig()
		m := core.NewModel(cfg, xrand.New(1))
		tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
		trace := telemetry.NewTracer(1, 4096)
		tr.SetTrace(trace, 0)
		fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
			Tracer: trace, Registry: telemetry.NewRegistry(),
		})
		if err != nil {
			panic(err)
		}
		tr.SetRecorder(fr)
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		specs = append(specs, Spec{
			Name:          "train_step_traced",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					tr.Step(batch)
				}
			},
		})
	}

	// End-to-end synchronous hybrid-parallel step on 2 in-process ranks
	// (BenchmarkHybridStep in the repository root measures the same
	// setup): model-parallel lookups, pooled all-to-all, data-parallel
	// dense pass, bucketed all-reduce, sparse scatter.
	if want("hybrid_step") {
		cfg := BenchStepConfig()
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		// The trainer (and its rank goroutines) starts lazily on first
		// use and lives for the process, like the tensor worker pool —
		// building specs must not spawn goroutines the caller never runs.
		var ht *hybrid.Trainer
		specs = append(specs, Spec{
			Name:          "hybrid_step",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				if ht == nil {
					var err error
					if ht, err = hybrid.New(cfg, hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1}); err != nil {
						panic(err)
					}
				}
				for i := 0; i < iters; i++ {
					ht.Step(batch)
				}
			},
		})
	}

	// Hybrid step with tracing and flight recording on across both rank
	// shards plus the overlapped all-reduce shards — the multi-writer
	// overhead companion to train_step_traced.
	if want("hybrid_step_traced") {
		cfg := BenchStepConfig()
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		var ht *hybrid.Trainer
		specs = append(specs, Spec{
			Name:          "hybrid_step_traced",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				if ht == nil {
					hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1}
					hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
					hc.Registry = telemetry.NewRegistry()
					fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
						Tracer: hc.Trace, Registry: hc.Registry, Ranks: hc.Ranks,
					})
					if err != nil {
						panic(err)
					}
					hc.Recorder = fr
					if ht, err = hybrid.New(cfg, hc); err != nil {
						panic(err)
					}
				}
				for i := 0; i < iters; i++ {
					ht.Step(batch)
				}
			},
		})
	}

	// Mixed-precision hybrid step: same model and batch as hybrid_step
	// but with bf16 embedding tables (fp32 masters, split-SGD) and
	// bf16-compressed collective wires on both the pooled all-to-all and
	// the dense all-reduce — the cheapest codec (two integer ops per
	// element), halving every wire payload. Paired with hybrid_step in
	// the hybrid_bf16_vs_fp32 speedup; the mixed_precision experiment
	// validates the recipe's quality.
	if want("hybrid_step_bf16") {
		cfg := BenchStepConfig()
		cfg.TableDType = tensor.BF16
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		var ht *hybrid.Trainer
		specs = append(specs, Spec{
			Name:          "hybrid_step_bf16",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				if ht == nil {
					var err error
					if ht, err = hybrid.New(cfg, hybrid.Config{
						Ranks: 2, LR: 0.05, Seed: 1,
						WireA2A:       collective.WireBF16,
						WireAllReduce: collective.WireBF16,
					}); err != nil {
						panic(err)
					}
				}
				for i := 0; i < iters; i++ {
					ht.Step(batch)
				}
			},
		})
	}

	// Pooled-embedding exchange in isolation: a 2-rank AllToAllV over a
	// hybrid_step-sized payload, fp32 wire vs int8-compressed wire. The
	// a2a_int8_vs_fp32 speedup isolates what the per-chunk-scaled codec
	// buys (and costs) on the wire path alone.
	for _, v := range []struct {
		name string
		wire collective.WireFormat
	}{
		{"a2a_fp32_wire", collective.WireFP32},
		{"a2a_int8_wire", collective.WireINT8},
	} {
		if !want(v.name) {
			continue
		}
		wire := v.wire
		// Per direction: the pooled rows hybrid_step exchanges each
		// iteration (batch · tables · dim elements, split across peers).
		const elems = benchBatch * 8 * 32
		world := collective.NewWorld(2, collective.PerfectLink())
		groups := make([]*collective.Group, 2)
		send := make([][][]float32, 2)
		recv := make([][][]float32, 2)
		g := world.NewGroup()
		g.SetWire(wire)
		rng := xrand.New(7)
		for r := 0; r < 2; r++ {
			groups[r] = g
			send[r] = [][]float32{make([]float32, elems/2), make([]float32, elems/2)}
			recv[r] = [][]float32{make([]float32, elems/2), make([]float32, elems/2)}
			for _, s := range send[r] {
				for i := range s {
					s[i] = float32(rng.Norm())
				}
			}
		}
		specs = append(specs, Spec{
			Name:          v.name,
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				var wg sync.WaitGroup
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func(rank int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							if err := groups[rank].AllToAllV(rank, send[rank], recv[rank]); err != nil {
								panic(err)
							}
						}
					}(r)
				}
				wg.Wait()
			},
		})
	}

	// End-to-end ingestion-fed training step: the staged on-disk reader
	// pipeline (2 decoders, RecD dedup) feeding the single-process
	// trainer, measuring the full NextBatch → Step → Recycle cycle
	// (BenchmarkIngestStep in the repository root measures the same
	// setup). The dataset materializes lazily into a temp dir on first
	// use so building specs does no IO.
	if want("ingest_step") {
		cfg := BenchStepConfig()
		var tr *core.Trainer
		var pipe *ingest.Pipeline
		specs = append(specs, Spec{
			Name:          "ingest_step",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				if pipe == nil {
					// One stable, deterministic dataset dir per machine,
					// reused across benchrun invocations (the writer's
					// equal-seed determinism makes any existing copy
					// identical) so repeated runs never accumulate /tmp
					// litter.
					dir := filepath.Join(os.TempDir(), "repro-ingest-step-bench")
					if _, err := os.Stat(filepath.Join(dir, "MANIFEST.json")); err != nil {
						if err := os.RemoveAll(dir); err != nil {
							panic(err)
						}
						gen := data.NewGenerator(cfg, 9, data.DefaultOptions())
						if err := gen.WriteShards(dir, 4, 4*benchBatch); err != nil {
							panic(err)
						}
					}
					ds, err := ingest.OpenDataset(dir)
					if err != nil {
						panic(err)
					}
					if pipe, err = ingest.Open(ds, cfg, ingest.Options{
						BatchSize: benchBatch, Readers: 2, Dedup: true, Seed: 1,
					}); err != nil {
						panic(err)
					}
					tr = core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
				}
				if _, _, err := train.Span(tr, pipe, iters); err != nil {
					panic(err)
				}
			},
		})
	}

	// GEMM: tiled/register-blocked production kernel vs the naive
	// three-loop reference.
	if want("gemm/tiled_256", "gemm/naive_256") {
		rng := xrand.New(3)
		a, b, dst := tensor.New(256, 256), tensor.New(256, 256), tensor.New(256, 256)
		tensor.NormalInit(a, 1, rng)
		tensor.NormalInit(b, 1, rng)
		specs = append(specs, Spec{
			Name: "gemm/tiled_256",
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					tensor.MatMul(dst, a, b)
				}
			},
		}, Spec{
			Name: "gemm/naive_256",
			Fn: func(iters int) {
				for it := 0; it < iters; it++ {
					for r := 0; r < 256; r++ {
						for c := 0; c < 256; c++ {
							var s float32
							for k := 0; k < 256; k++ {
								s += a.At(r, k) * b.At(k, c)
							}
							dst.Set(r, c, s)
						}
					}
				}
			},
		})
	}

	// Dense layer forward: fused matmul+bias+ReLU vs the three-pass
	// unfused sequence it replaced.
	if want("dense_layer/fused", "dense_layer/unfused") {
		rng := xrand.New(4)
		x, w, y := tensor.New(benchBatch, 256), tensor.New(256, 128), tensor.New(benchBatch, 128)
		bias := make([]float32, 128)
		tensor.NormalInit(x, 1, rng)
		tensor.NormalInit(w, 0.1, rng)
		specs = append(specs, Spec{
			Name: "dense_layer/fused",
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					tensor.MatMulBiasReLU(y, x, w, bias, true)
				}
			},
		}, Spec{
			Name: "dense_layer/unfused",
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					UnfusedDenseLayer(y, x, w, bias)
				}
			},
		})
	}

	// Sparse side: pooled bag lookup + gradient scatter, and the hashing
	// trick.
	if want("embedding/bag_forward", "embedding/bag_backward", "embedding/hash_index") {
		cfg := BenchStepConfig()
		rng := xrand.New(5)
		tab := embedding.NewTable("bench", cfg.Sparse[0].HashSize, cfg.EmbeddingDim, rng)
		gen := data.NewGenerator(cfg, 6, data.DefaultOptions())
		batch := gen.NextBatch(benchBatch)
		bag := batch.Bags[0]
		out := tensor.New(benchBatch, cfg.EmbeddingDim)
		dOut := tensor.New(benchBatch, cfg.EmbeddingDim)
		tensor.NormalInit(dOut, 1, rng)
		sc := embedding.NewScratch()
		sg := embedding.NewSparseGrad(cfg.EmbeddingDim)
		specs = append(specs, Spec{
			Name:          "embedding/bag_forward",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					tab.BagForwardInto(bag, out, sc)
				}
			},
		}, Spec{
			Name:          "embedding/bag_backward",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					sg.Reset()
					tab.BagBackward(bag, dOut, sg)
				}
			},
		}, Spec{
			Name:          "embedding/hash_index",
			ExamplesPerOp: 1024,
			Fn: func(iters int) {
				var sink int32
				for i := 0; i < iters; i++ {
					for id := uint64(0); id < 1024; id++ {
						sink = tab.HashIndex(id*2654435761 + uint64(i))
					}
				}
				_ = sink
			},
		})
	}

	// Data path: recycled NextBatchInto vs per-call allocation.
	if want("data/next_batch_into", "data/next_batch") {
		cfg := BenchStepConfig()
		genInto := data.NewGenerator(cfg, 7, data.DefaultOptions())
		genFresh := data.NewGenerator(cfg, 7, data.DefaultOptions())
		var mb *core.MiniBatch
		specs = append(specs, Spec{
			Name:          "data/next_batch_into",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					mb = genInto.NextBatchInto(benchBatch, mb)
				}
			},
		}, Spec{
			Name:          "data/next_batch",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					_ = genFresh.NextBatch(benchBatch)
				}
			},
		})
	}

	// Checkpoint stall: full snapshot vs incremental delta of the same
	// trained state — the pause a training loop pays at a save point
	// (BenchmarkCkptSnapshot in the repository root measures the same
	// pair). Each iteration deletes the previous checkpoint after the new
	// one lands (retain-newest policy), so the store directory stays
	// small and the measured cost is one encode+hash+write cycle. The
	// delta carries exactly the rows one training step touches.
	if want("ckpt_snapshot/full", "ckpt_snapshot/delta") {
		cfg := BenchStepConfig()
		tr := core.NewTrainer(core.NewModel(cfg, xrand.New(1)), core.TrainerConfig{LR: 0.05})
		gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
		tr.Step(gen.NextBatch(benchBatch))
		touched := make([][]int32, 0, len(tr.DirtyRows()))
		for _, d := range tr.DirtyRows() {
			ids := make([]int32, 0, d.Count())
			d.ForEach(func(r int32) { ids = append(ids, r) })
			touched = append(touched, ids)
		}
		st := tr.CkptState()
		dirty := tr.DirtyRows()
		openBenchStore := func(kind string) *ckpt.Store {
			dir := filepath.Join(os.TempDir(), "repro-ckpt-bench-"+kind)
			if err := os.RemoveAll(dir); err != nil {
				panic(err)
			}
			store, err := ckpt.OpenStore(dir)
			if err != nil {
				panic(err)
			}
			return store
		}
		var fullStore, deltaStore *ckpt.Store
		var fullPrev, deltaPrev string
		specs = append(specs, Spec{
			Name: "ckpt_snapshot/full",
			Fn: func(iters int) {
				if fullStore == nil {
					fullStore = openBenchStore("full")
				}
				for i := 0; i < iters; i++ {
					st.Step++
					info, err := fullStore.SaveFull(st, nil)
					if err != nil {
						panic(err)
					}
					if fullPrev != "" {
						if err := os.RemoveAll(filepath.Join(os.TempDir(), "repro-ckpt-bench-full", fullPrev)); err != nil {
							panic(err)
						}
					}
					fullPrev = info.Name
				}
			},
		}, Spec{
			Name: "ckpt_snapshot/delta",
			Fn: func(iters int) {
				if deltaStore == nil {
					deltaStore = openBenchStore("delta")
					st.Step++
					if _, err := deltaStore.SaveFull(st, dirty); err != nil {
						panic(err)
					}
				}
				for i := 0; i < iters; i++ {
					for ti, ids := range touched {
						dirty[ti].Mark(ids)
					}
					st.Step++
					info, err := deltaStore.SaveDelta(st, dirty)
					if err != nil {
						panic(err)
					}
					if deltaPrev != "" {
						if err := os.RemoveAll(filepath.Join(os.TempDir(), "repro-ckpt-bench-delta", deltaPrev)); err != nil {
							panic(err)
						}
					}
					deltaPrev = info.Name
				}
			},
		})
	}

	// Loss micro-kernel rounds out the step profile.
	if want("loss/bce_with_logits") {
		logits := make([]float32, benchBatch)
		labels := make([]float32, benchBatch)
		grad := make([]float32, benchBatch)
		rng := xrand.New(8)
		for i := range logits {
			logits[i] = float32(rng.Norm())
			if rng.Float32() < 0.25 {
				labels[i] = 1
			}
		}
		specs = append(specs, Spec{
			Name:          "loss/bce_with_logits",
			ExamplesPerOp: benchBatch,
			Fn: func(iters int) {
				for i := 0; i < iters; i++ {
					nn.BCEWithLogits(logits, labels, grad)
				}
			},
		})
	}

	// Fixture blocks are shared, so a matching block may carry sibling
	// specs the filter does not name; drop those here.
	if filter != "" {
		kept := specs[:0]
		for _, s := range specs {
			if strings.Contains(s.Name, filter) {
				kept = append(kept, s)
			}
		}
		specs = kept
	}
	return specs
}
