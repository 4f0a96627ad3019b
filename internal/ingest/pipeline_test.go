package ingest_test

import (
	"errors"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/ingest"
	"repro/internal/perfmodel"
	"repro/internal/telemetry"
	"repro/internal/train"
	"repro/internal/xrand"
)

func pipeCfg() core.Config {
	return core.Config{
		Name:          "pipe-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(3, 500, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.DotProduct,
	}
}

func writeDataset(t *testing.T, cfg core.Config, seed int64, shards, perShard int) *ingest.Dataset {
	t.Helper()
	dir := t.TempDir()
	gen := data.NewGenerator(cfg, seed, data.DefaultOptions())
	if err := gen.WriteShards(dir, shards, perShard); err != nil {
		t.Fatal(err)
	}
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	return ds
}

// drain pulls batches until EOF, recycling each, and returns the example
// count and batch count.
func drain(t *testing.T, p *ingest.Pipeline, cfg core.Config) (examples, batches int) {
	t.Helper()
	for {
		mb, err := p.NextBatch()
		if errors.Is(err, io.EOF) {
			return examples, batches
		}
		if err != nil {
			t.Fatal(err)
		}
		if verr := mb.Validate(&cfg); verr != nil {
			t.Fatalf("assembled batch invalid: %v", verr)
		}
		examples += mb.Batch()
		batches++
		p.Recycle(mb)
	}
}

// TestPipelineDeliversEveryExample: one epoch emits exactly the dataset,
// batch by batch, for 1 and for several readers.
func TestPipelineDeliversEveryExample(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 11, 4, 96)
	for _, readers := range []int{1, 3} {
		p, err := ingest.Open(ds, cfg, ingest.Options{
			BatchSize: 32, Readers: readers, Epochs: 1, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		examples, batches := drain(t, p, cfg)
		p.Close()
		if examples != 4*96 {
			t.Fatalf("readers=%d: delivered %d examples, want %d", readers, examples, 4*96)
		}
		if batches != 12 {
			t.Fatalf("readers=%d: %d batches, want 12", readers, batches)
		}
		m := p.Meters()
		if m.ExamplesDecoded != 4*96 || m.BatchesOut != 12 {
			t.Fatalf("readers=%d: meters decoded=%d batches=%d", readers, m.ExamplesDecoded, m.BatchesOut)
		}
		if m.BytesRead != ds.Bytes() {
			t.Fatalf("readers=%d: read %d bytes, dataset is %d", readers, m.BytesRead, ds.Bytes())
		}
	}
}

// TestPipelinePartialFinalBatch: a dataset that does not divide by the
// batch size ends with one short batch, not dropped examples.
func TestPipelinePartialFinalBatch(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 12, 1, 50)
	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 32, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	examples, batches := drain(t, p, cfg)
	if examples != 50 || batches != 2 {
		t.Fatalf("delivered %d examples in %d batches, want 50 in 2", examples, batches)
	}
}

// TestPipelineRecyclesBatches pins the backpressure ring: at steady state
// the batches handed out are the same objects handed back.
func TestPipelineRecyclesBatches(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 13, 2, 256)
	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 64, PrefetchDepth: 2, Epochs: 0, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	seen := map[*core.MiniBatch]bool{}
	for i := 0; i < 40; i++ {
		mb, err := p.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		seen[mb] = true
		p.Recycle(mb)
	}
	// PrefetchDepth+1 is the mint budget; the ring must cycle within it.
	if len(seen) > 3 {
		t.Fatalf("pipeline minted %d distinct batches, budget is 3", len(seen))
	}
}

// TestPipelineDeterministicWithOneReader: fixed seed + single reader =>
// bit-identical batch stream.
func TestPipelineDeterministicWithOneReader(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 14, 3, 64)
	stream := func() [][]float32 {
		p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 48, Readers: 1, Epochs: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var out [][]float32
		for {
			mb, err := p.NextBatch()
			if errors.Is(err, io.EOF) {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			row := append([]float32(nil), mb.Dense.Data...)
			row = append(row, mb.Labels...)
			out = append(out, row)
			p.Recycle(mb)
		}
	}
	a, b := stream(), stream()
	if len(a) != len(b) {
		t.Fatalf("stream lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("batch %d sizes differ", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("batch %d diverges at %d", i, j)
			}
		}
	}
}

// TestDedupMeters: Zipf-skewed data dedups (ratio > 1); an all-unique
// dataset reports exactly 1.0.
func TestDedupMeters(t *testing.T) {
	cfg := pipeCfg() // Zipf index skew via DefaultOptions
	ds := writeDataset(t, cfg, 15, 2, 128)
	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 64, Epochs: 1, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	for {
		mb, err := p.NextBatch()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(mb.Dedup) != cfg.NumSparse() || !mb.Dedup[0].Built() {
			t.Fatal("dedup view missing from assembled batch")
		}
		p.Recycle(mb)
	}
	p.Close()
	if r := p.Meters().DedupRatio(); r <= 1.0 {
		t.Fatalf("Zipf dataset dedup ratio %v, want > 1", r)
	}

	// All-unique dataset: every index distinct across the whole dataset.
	uniq := cfg
	uniq.Sparse = core.UniformSparse(2, 4096, 2)
	dir := t.TempDir()
	w, err := ingest.NewShardWriter(dir, uniq)
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(uniq, 1, data.DefaultOptions())
	next := int32(0)
	var mb *core.MiniBatch
	for s := 0; s < 2; s++ {
		mb = gen.NextBatchInto(64, mb)
		for f := range mb.Bags {
			for k := range mb.Bags[f].Indices {
				mb.Bags[f].Indices[k] = next % 4096
				next++
			}
		}
		if err := w.Append(mb); err != nil {
			t.Fatal(err)
		}
		if err := w.EndShard(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if next > 4096 {
		t.Fatalf("test wrote %d indices into a 4096 hash space; uniqueness broken", next)
	}
	uds, err := ingest.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer uds.Close()
	up, err := ingest.Open(uds, uniq, ingest.Options{BatchSize: 32, Epochs: 1, Dedup: true})
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	drain(t, up, uniq)
	if r := up.Meters().DedupRatio(); r != 1.0 {
		t.Fatalf("all-unique dedup ratio %v, want exactly 1.0", r)
	}
}

// TestStarvationMeter: a throttled single reader must leave the trainer
// starved; an unthrottled prefetching pipeline against a slow consumer
// must not.
func TestStarvationMeter(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 16, 4, 128)
	bytesPerShard := float64(ds.Bytes()) / 4

	// Throttle so each shard takes ~15ms to "read": the instant consumer
	// is starved nearly 100% of the time.
	reg := telemetry.NewRegistry()
	opt := ingest.Options{
		BatchSize: 64, Readers: 1, Epochs: 1, ReadBandwidth: bytesPerShard / 0.015, Registry: reg,
	}
	opt.Trace = telemetry.NewTracer(opt.ShardCount(), 4096)
	p, err := ingest.Open(ds, cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, p, cfg)
	p.Close()
	m := p.Meters()
	if m.StarvationFrac() <= 0.2 {
		t.Fatalf("throttled reader starvation %.3f, want > 0.2", m.StarvationFrac())
	}
	// The doctor reads starvation from both sides, the batch-wait spans
	// and the meter, so the two must be one measurement.
	var waitNs int64
	for _, sp := range opt.Trace.Snapshot().Spans {
		if sp.Phase == telemetry.PhaseBatchWait {
			waitNs += sp.Dur()
		}
	}
	if starved := reg.Snapshot().Get("ingest/starved_ns"); waitNs == 0 || waitNs != starved {
		t.Fatalf("batch-wait spans total %d ns, starvation meter %d ns: want equal and > 0", waitNs, starved)
	}
	if mbps := m.ReadMBps(); mbps <= 0 {
		t.Fatalf("read bandwidth meter %v", mbps)
	}

	// Unthrottled, slow consumer: prefetch hides the readers entirely.
	p2, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 64, Readers: 2, Epochs: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	for i := 0; i < 10; i++ {
		mb, err := p2.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		p2.Recycle(mb)
	}
	m2 := p2.Meters()
	if m2.StarvationFrac() > 0.5 {
		t.Fatalf("prefetching pipeline starved a slow consumer %.0f%% of the time", 100*m2.StarvationFrac())
	}
	if m2.Occupancy() <= 0 {
		t.Fatal("occupancy meter stayed at 0 under a slow consumer")
	}
}

// TestSpanFromPipeline: both trainers learn from the on-disk stream, and
// the dedup path trains identically to the plain path on the same stream.
func TestSpanFromPipeline(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 17, 4, 256)

	losses := func(dedup bool) float64 {
		p, err := ingest.Open(ds, cfg, ingest.Options{
			BatchSize: 64, Readers: 1, Epochs: 0, Seed: 5, Dedup: dedup,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		m := core.NewModel(cfg, xrand.New(21))
		tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
		mean, steps, err := train.Span(tr, p, 30)
		if err != nil {
			t.Fatal(err)
		}
		if steps != 30 {
			t.Fatalf("trained %d steps, want 30", steps)
		}
		return mean
	}
	plain := losses(false)
	dedup := losses(true)
	if plain != dedup {
		t.Fatalf("dedup changed training: mean loss %v vs %v", dedup, plain)
	}
	if math.IsNaN(plain) || plain <= 0 {
		t.Fatalf("degenerate mean loss %v", plain)
	}

	// Finite stream: the span stops at EOF without error.
	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 64, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	m := core.NewModel(cfg, xrand.New(22))
	tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
	_, steps, err := train.Span(tr, p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 256 / 64; steps != want {
		t.Fatalf("finite stream yielded %d steps, want %d", steps, want)
	}
}

// TestIngestSteadyStateAllocs is the batch-recycling allocation guard:
// once every slab (blocks, shuffle slots, recycled MiniBatches, dedup
// views) has warmed, a NextBatch → Recycle cycle must be (near) zero
// allocation across the whole pipeline. AllocsPerRun counts process-wide
// mallocs, so the background decode/assembly stages are inside the
// budget; a small allowance absorbs runtime noise (timer pages, map
// growth tails on the skewed bag sizes).
func TestIngestSteadyStateAllocs(t *testing.T) {
	cfg := pipeCfg()
	ds := writeDataset(t, cfg, 41, 4, 256)
	p, err := ingest.Open(ds, cfg, ingest.Options{
		BatchSize: 64, Readers: 2, Epochs: 0, Dedup: true, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 600; i++ { // many epochs: warm every slab, cap, and map
		mb, err := p.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		p.Recycle(mb)
	}
	avg := testing.AllocsPerRun(50, func() {
		mb, err := p.NextBatch()
		if err != nil {
			t.Fatal(err)
		}
		p.Recycle(mb)
	})
	if avg > 2 {
		t.Fatalf("steady-state NextBatch/Recycle allocates %.1f objects, want ~0", avg)
	}
}

// TestMetersMatchPerfmodel cross-checks the analytic ingestion terms
// against the observed meters: one epoch reads exactly the dataset, and
// the dataset's size is exactly the per-record formula summed over the
// actual index counts (regenerated from an equal-seed generator).
func TestMetersMatchPerfmodel(t *testing.T) {
	cfg := pipeCfg()
	const shards, perShard = 3, 128
	ds := writeDataset(t, cfg, 23, shards, perShard)

	want := int64(shards * 16) // shard headers
	gen := data.NewGenerator(cfg, 23, data.DefaultOptions())
	counts := make([]int, cfg.NumSparse())
	for s := 0; s < shards; s++ {
		mb := gen.NextBatch(perShard)
		for i := 0; i < perShard; i++ {
			for f := range mb.Bags {
				counts[f] = int(mb.Bags[f].Offsets[i+1] - mb.Bags[f].Offsets[i])
			}
			want += perfmodel.IngestRecordBytes(cfg.DenseFeatures, counts)
		}
	}
	if ds.Bytes() != want {
		t.Fatalf("dataset is %d bytes, IngestRecordBytes sums to %d", ds.Bytes(), want)
	}

	p, err := ingest.Open(ds, cfg, ingest.Options{BatchSize: 64, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	drain(t, p, cfg)
	m := p.Meters()
	if m.BytesRead != want {
		t.Fatalf("meters read %d bytes, formula says %d", m.BytesRead, want)
	}
	// The expectation form (configured MeanPooled) should land within a
	// factor of two of the realized mean record — the generator's
	// rescaled power law is approximate, not exact.
	obs := float64(m.BytesRead) / float64(m.ExamplesDecoded)
	exp := perfmodel.IngestBytesPerExample(cfg)
	if r := obs / exp; r < 0.5 || r > 2 {
		t.Fatalf("observed %.1f bytes/example vs expected %.1f (ratio %.2f)", obs, exp, r)
	}
}

// TestGeneratorSource: the in-memory baseline source recycles and streams
// forever.
func TestGeneratorSource(t *testing.T) {
	cfg := pipeCfg()
	gen := data.NewGenerator(cfg, 31, data.DefaultOptions())
	src := gen.NewSource(32)
	mb, err := src.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if mb.Batch() != 32 {
		t.Fatalf("batch size %d", mb.Batch())
	}
	src.Recycle(mb)
	mb2, err := src.NextBatch()
	if err != nil {
		t.Fatal(err)
	}
	if mb2 != mb {
		t.Fatal("GeneratorSource did not recycle the batch")
	}
	m := core.NewModel(cfg, xrand.New(1))
	tr := core.NewTrainer(m, core.TrainerConfig{LR: 0.05})
	if _, steps, err := train.Span(tr, src, 5); err != nil || steps != 5 {
		t.Fatalf("Span(GeneratorSource): steps=%d err=%v", steps, err)
	}
}
