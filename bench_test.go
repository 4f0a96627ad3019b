// Benchmarks regenerating each of the paper's tables and figures, plus
// ablations of the design choices called out in DESIGN.md. Run with:
//
//	go test -bench=. -benchmem
package recsim

import (
	"testing"

	"repro/internal/benchreport"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/memtier"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// benchExperiment runs one paper artifact per iteration (quick mode for
// the heavy real-training/fleet studies).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if res.Output == "" {
			b.Fatal("empty output")
		}
	}
}

func BenchmarkFig1(b *testing.B)     { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)     { benchExperiment(b, "fig2") }
func BenchmarkFig5(b *testing.B)     { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)     { benchExperiment(b, "fig7") }
func BenchmarkFig9(b *testing.B)     { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)    { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)    { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)    { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkTable1(b *testing.B)   { benchExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)   { benchExperiment(b, "table3") }
func BenchmarkAutotune(b *testing.B) { benchExperiment(b, "vic") }

// ---- substrate micro-benchmarks and DESIGN.md ablations ----

// BenchmarkTrainStep measures one real training step of a mid-size model
// (benchreport.BenchStepConfig, the model of three bench/e2e workloads).
func BenchmarkTrainStep(b *testing.B) {
	cfg := benchreport.BenchStepConfig()
	m := NewModel(cfg, 1)
	tr := NewTrainer(m, TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	batch := gen.NextBatch(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(batch)
	}
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
}

// BenchmarkSparseHeavyStep measures Trainer.Step at the bench/e2e
// sparse_heavy shape (8 tables of 200k × 64 fp32, 40 ids per example,
// batch 128), on a fresh generator batch per step drawn outside the
// timer: the rows a step touches are as cold as in a training run, which
// BenchmarkTrainStep's one reused batch never lets them be. It reports
// the three sparse phases from the trainer's own spans.
func BenchmarkSparseHeavyStep(b *testing.B) {
	sparse := core.UniformSparse(8, 200000, 40)
	for i := range sparse {
		sparse[i].MaxPooled = 64
	}
	cfg := ModelConfig{
		Name: "sparse_heavy", DenseFeatures: 16, Sparse: sparse, EmbeddingDim: 64,
		BottomMLP: []int{64}, TopMLP: []int{64}, Interaction: InteractionDot,
	}
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	var batch *MiniBatch
	for i := 0; i < 20; i++ { // warm the heap and the pool
		batch = gen.NextBatchInto(128, batch)
		tr.Step(batch)
	}
	tracer := telemetry.NewTracer(1, 64)
	tr.SetTrace(tracer, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		batch = gen.NextBatchInto(128, batch)
		b.StartTimer()
		tr.Step(batch)
	}
	b.StopTimer()
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
	for _, ph := range []struct {
		name  string
		phase telemetry.Phase
	}{
		{"lookup_ms", telemetry.PhaseEmbLookup},
		{"scatter_ms", telemetry.PhaseSparseScatter},
		{"apply_ms", telemetry.PhaseSparseApply},
	} {
		h := tracer.PhaseHist(ph.phase)
		b.ReportMetric(h.Mean()/1e6, ph.name)
	}
}

// BenchmarkDenseHeavyStep measures Trainer.Step at the bench/e2e
// dense_heavy shape (256 dense features, 512-256 MLPs on both sides of a
// dot interaction over four tiny tables, batch 64), where the GEMMs and
// the dense optimizer are nearly the whole step. It reports the dense
// phases from the trainer's own spans.
func BenchmarkDenseHeavyStep(b *testing.B) {
	cfg := ModelConfig{
		Name: "dense_heavy", DenseFeatures: 256, Sparse: core.UniformSparse(4, 10000, 2),
		EmbeddingDim: 32, BottomMLP: []int{512, 256}, TopMLP: []int{512, 256}, Interaction: InteractionDot,
	}
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	batch := gen.NextBatch(64)
	for i := 0; i < 20; i++ { // warm the heap and the pool
		tr.Step(batch)
	}
	tracer := telemetry.NewTracer(1, 64)
	tr.SetTrace(tracer, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(batch)
	}
	b.StopTimer()
	b.ReportMetric(float64(64*b.N)/b.Elapsed().Seconds(), "examples/sec")
	for _, ph := range []struct {
		name  string
		phase telemetry.Phase
	}{
		{"fwd_ms", telemetry.PhaseDenseFwd},
		{"bwd_ms", telemetry.PhaseDenseBwd},
		{"optim_ms", telemetry.PhaseOptimizer},
	} {
		h := tracer.PhaseHist(ph.phase)
		b.ReportMetric(h.Mean()/1e6, ph.name)
	}
}

// BenchmarkTrainStepTraced is BenchmarkTrainStep with span tracing on:
// the delta against the untraced number is the telemetry overhead, whose
// acceptance bound is < 3%.
func BenchmarkTrainStepTraced(b *testing.B) {
	cfg := benchreport.BenchStepConfig()
	m := NewModel(cfg, 1)
	tr := NewTrainer(m, TrainerConfig{LR: 0.05})
	tr.SetTrace(telemetry.NewTracer(1, 4096), 0)
	gen := NewGenerator(cfg, 2)
	batch := gen.NextBatch(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Step(batch)
	}
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
}

// BenchmarkHybridStep measures one synchronous hybrid-parallel step on 2
// in-process ranks over the same model/batch as BenchmarkTrainStep, so
// the parallelization overhead (collectives + pack/unpack) is directly
// readable against the single-process step. The bf16 case stores the
// tables in bf16 (fp32 masters, split-SGD) and sends both the all-to-all
// and the all-reduce through the bf16 codec, halving every wire payload.
func BenchmarkHybridStep(b *testing.B) {
	for _, tc := range []struct {
		name  string
		table tensor.DType
		wire  collective.WireFormat
	}{
		{"fp32", tensor.FP32, collective.WireFP32},
		{"bf16", tensor.BF16, collective.WireBF16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := benchreport.BenchStepConfig()
			cfg.TableDType = tc.table
			ht, err := hybrid.New(cfg, hybrid.Config{
				Ranks: 2, LR: 0.05, Seed: 1, WireA2A: tc.wire, WireAllReduce: tc.wire,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer ht.Close()
			gen := NewGenerator(cfg, 2)
			batch := gen.NextBatch(128)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ht.Step(batch)
			}
			b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
		})
	}
}

// BenchmarkHybridStepTraced is the fp32 BenchmarkHybridStep with span
// tracing on across both rank shards.
func BenchmarkHybridStepTraced(b *testing.B) {
	cfg := benchreport.BenchStepConfig()
	hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1}
	hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
	ht, err := hybrid.New(cfg, hc)
	if err != nil {
		b.Fatal(err)
	}
	defer ht.Close()
	gen := NewGenerator(cfg, 2)
	batch := gen.NextBatch(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ht.Step(batch)
	}
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
}

// BenchmarkIngestStep measures the ingestion-fed training step: the
// staged on-disk reader pipeline (2 decoders, RecD dedup) feeding
// core.Trainer over the same model as BenchmarkTrainStep, so the cost of
// training from disk instead of a resident batch is directly readable.
func BenchmarkIngestStep(b *testing.B) {
	cfg := benchreport.BenchStepConfig()
	dir := b.TempDir()
	gen := NewGenerator(cfg, 9)
	if err := gen.WriteShards(dir, 4, 4*128); err != nil {
		b.Fatal(err)
	}
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	pipe, err := ingest.Open(ds, cfg, ingest.Options{
		BatchSize: 128, Readers: 2, Dedup: true, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer pipe.Close()
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	b.ResetTimer()
	if _, _, err := train.Span(tr, pipe, b.N); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(128*b.N)/b.Elapsed().Seconds(), "examples/sec")
	b.ReportMetric(pipe.Meters().DedupRatio(), "dedup-ratio")
}

// openIngestStream writes shards examples × 4096 at the bench/e2e
// ingest_stream shape and opens a one-reader dedup pipeline over them.
func openIngestStream(b *testing.B, shards int) (ModelConfig, *ingest.Pipeline) {
	cfg := ingestStreamConfig()
	dir := b.TempDir()
	if err := NewGenerator(cfg, 2).WriteShards(dir, shards, 4096); err != nil {
		b.Fatal(err)
	}
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ds.Close() })
	pipe, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 256, Readers: 1, Dedup: true, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(pipe.Close)
	return cfg, pipe
}

// BenchmarkIngestStreamStep measures the bench/e2e ingest_stream loop:
// Trainer.Step at the narrow shape (dim 2, [4]/[4] MLPs, 16 × 24 ids
// per example over 200-row tables, batch 256) fed by a one-reader dedup
// pipeline, which shares the cores with the trainer. Besides
// examples/sec it reports the trainer's lookup, scatter, dense forward,
// dense backward and sparse apply phases in µs from its own spans.
func BenchmarkIngestStreamStep(b *testing.B) {
	cfg, pipe := openIngestStream(b, 4)
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	step := func() {
		mb, err := pipe.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		tr.Step(mb)
		pipe.Recycle(mb)
	}
	for i := 0; i < 20; i++ { // warm the heap, the pool and the ring
		step()
	}
	tracer := telemetry.NewTracer(1, 64)
	tr.SetTrace(tracer, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
	b.StopTimer()
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "examples/sec")
	for _, ph := range []struct {
		name  string
		phase telemetry.Phase
	}{
		{"lookup_us", telemetry.PhaseEmbLookup},
		{"scatter_us", telemetry.PhaseSparseScatter},
		{"fwd_us", telemetry.PhaseDenseFwd},
		{"bwd_us", telemetry.PhaseDenseBwd},
		{"apply_us", telemetry.PhaseSparseApply},
	} {
		h := tracer.PhaseHist(ph.phase)
		b.ReportMetric(h.Mean()/1e3, ph.name)
	}
	reportBlocks(b, pipe)
}

// BenchmarkIngestDrain is the reader tier alone at the ingest_stream
// shape: NextBatch and Recycle on a one-reader dedup pipeline with no
// trainer behind it, the ceiling bench/e2e reports as
// ingest.drain_examples_per_sec. Both ingest_stream benchmarks also
// report the blocks the pipeline minted and the share of rows compacted.
func BenchmarkIngestDrain(b *testing.B) {
	_, pipe := openIngestStream(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mb, err := pipe.NextBatch()
		if err != nil {
			b.Fatal(err)
		}
		pipe.Recycle(mb)
	}
	b.StopTimer()
	b.ReportMetric(float64(256*b.N)/b.Elapsed().Seconds(), "examples/sec")
	reportBlocks(b, pipe)
}

// reportBlocks reports the blocks the pipeline minted, decoder and
// compaction blocks together, and the share of decoded rows its
// compaction copied a second time.
func reportBlocks(b *testing.B, pipe *ingest.Pipeline) {
	m := pipe.Registry().Snapshot()
	b.ReportMetric(float64(m.Get("ingest/blocks_minted")), "blocks_minted")
	b.ReportMetric(float64(m.Get("ingest/rows_compacted"))/float64(m.Get("ingest/examples_decoded")), "compacted_share")
}

// BenchmarkPerfModelEstimate measures the analytic model's cost.
func BenchmarkPerfModelEstimate(b *testing.B) {
	cfg := workload.DefaultTestSuite(1024, 64)
	plan, err := placement.Fit(cfg, hw.BigBasin(), placement.GPUMemory, 0)
	if err != nil {
		b.Fatal(err)
	}
	s := perfmodel.Scenario{Cfg: cfg, Platform: hw.BigBasin(), Batch: 1600, Plan: plan}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := perfmodel.Estimate(s); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: blocked/parallel GEMM vs the naive kernel.
func BenchmarkAblationGEMMBlocked(b *testing.B) {
	rng := xrand.New(1)
	x, y, dst := randMat(rng, 256), randMat(rng, 256), tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulBiasReLU(dst, x, y, nil, false)
	}
}

func BenchmarkAblationGEMMNaive(b *testing.B) {
	rng := xrand.New(1)
	x, y, dst := randMat(rng, 256), randMat(rng, 256), tensor.New(256, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 256; r++ {
			for c := 0; c < 256; c++ {
				var s float32
				for k := 0; k < 256; k++ {
					s += x.At(r, k) * y.At(k, c)
				}
				dst.Set(r, c, s)
			}
		}
	}
}

func randMat(rng *xrand.RNG, n int) *tensor.Matrix {
	m := tensor.New(n, n)
	tensor.NormalInit(m, 1, rng)
	return m
}

// Ablation: fused matmul+bias+ReLU epilogue vs the three-pass sequence
// (see DESIGN.md "Fusion").
func BenchmarkAblationDenseLayerFused(b *testing.B) {
	rng := xrand.New(1)
	x, w, y := randMat(rng, 256), randMat(rng, 256), tensor.New(256, 256)
	bias := make([]float32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulBiasReLU(y, x, w, bias, true)
	}
}

func BenchmarkAblationDenseLayerUnfused(b *testing.B) {
	rng := xrand.New(1)
	x, w, y := randMat(rng, 256), randMat(rng, 256), tensor.New(256, 256)
	bias := make([]float32, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		unfusedDenseLayer(y, x, w, bias)
	}
}

// unfusedDenseLayer runs the pre-fusion dense-layer forward sequence
// (matmul, then bias and ReLU passes) that tensor.MatMulBiasReLU replaced.
func unfusedDenseLayer(y, x, w *tensor.Matrix, bias []float32) {
	tensor.MatMulBiasReLU(y, x, w, nil, false)
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

// Ablation: table-wise sharding balanced on bytes vs on lookups
// (§III-A2: access frequency does not correlate with size).
func BenchmarkAblationShardingBalance(b *testing.B) {
	cfg := workload.M3Prod()
	stats := make([]embedding.TableStat, cfg.NumSparse())
	for i, s := range cfg.TableStats() {
		stats[i] = embedding.TableStat{Index: s.Index, Bytes: s.Bytes, MeanPooled: s.MeanPooled}
	}
	b.ResetTimer()
	var byBytes, byLookups float64
	for i := 0; i < b.N; i++ {
		_, loadB := embedding.TableWiseGreedy(stats, 8, 0.0)
		_, loadL := embedding.TableWiseGreedy(stats, 8, 1.0)
		byBytes = embedding.MaxOverMean(loadB.Lookups)
		byLookups = embedding.MaxOverMean(loadL.Lookups)
	}
	b.ReportMetric(byBytes, "lookup-imbalance(bytes-balanced)")
	b.ReportMetric(byLookups, "lookup-imbalance(lookup-balanced)")
}

// Ablation: LRU caching opportunity on Zipf embedding traces (§III-A2).
func BenchmarkAblationLRUCacheHitRate(b *testing.B) {
	cfg := core.Config{
		Name:          "cache-bench",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 100000, 8),
		EmbeddingDim:  16,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := NewGenerator(cfg, 3)
	var batches []*core.MiniBatch
	for i := 0; i < 8; i++ {
		batches = append(batches, gen.NextBatch(128))
	}
	b.ResetTimer()
	var hit float64
	for i := 0; i < b.N; i++ {
		hit = memtier.Replay(memtier.NewLRU(4096), batches)
	}
	b.ReportMetric(hit, "hit-rate@4096rows")
}

// Ablation: overlapped trainer flows in the DES pipeline (serial vs 4 flows).
func BenchmarkAblationPipelineOverlap(b *testing.B) {
	run := func(flows int) float64 {
		res, err := pipelineRun(flows)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	var serial, overlapped float64
	for i := 0; i < b.N; i++ {
		serial = run(1)
		overlapped = run(4)
	}
	b.ReportMetric(serial, "thpt-serial")
	b.ReportMetric(overlapped, "thpt-overlap4")
}
