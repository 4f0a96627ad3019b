// Package data synthesizes click-through-rate training data with the
// statistical structure the paper attributes to production workloads:
// dense features, multi-hot sparse features whose per-example lengths
// follow a truncated power law (Fig 7), embedding-row popularity following
// a Zipf law (the irregular-access characterization of §III-A2), and
// labels planted by a hidden teacher model so that model quality (NE,
// accuracy) is a meaningful, improvable metric.
//
// The paper trains from Hive via decoupled reader servers (§IV-B2); the
// Reader type mirrors that arrangement with a bounded channel so trainers
// never stall on data generation in the real-training experiments.
package data

import (
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/ingest"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// GeneratorOptions tune the synthetic distribution.
type GeneratorOptions struct {
	// TeacherScale multiplies the hidden teacher's logits; larger
	// values make labels more learnable (less label noise).
	TeacherScale float64
	// TargetCTR shifts teacher logits so the positive rate is roughly
	// this value. Production CTR-style tasks sit well below 0.5.
	TargetCTR float64
	// IndexSkew is the Zipf exponent for embedding-row popularity
	// (> 1). Higher values concentrate lookups on fewer rows.
	IndexSkew float64
	// LengthSkew is the power-law exponent of per-example multi-hot
	// lengths.
	LengthSkew float64
}

// DefaultOptions returns the options used across the experiments.
func DefaultOptions() GeneratorOptions {
	return GeneratorOptions{
		TeacherScale: 3.0,
		TargetCTR:    0.25,
		IndexSkew:    1.2,
		LengthSkew:   1.1,
	}
}

// Generator produces MiniBatches for a model config.
type Generator struct {
	cfg  core.Config
	opts GeneratorOptions
	rng  *xrand.RNG

	teacher   *core.Model
	bias      float32
	lengthGen []*xrand.BoundedZipf
	indexGen  []*rand.Zipf
}

// NewGenerator builds a deterministic generator for cfg. The teacher model
// is drawn from the same config (with small MLP stacks) using a seed
// derived from the given one, so two generators with equal seeds produce
// identical streams.
func NewGenerator(cfg core.Config, seed int64, opts GeneratorOptions) *Generator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	rng := xrand.New(seed)
	g := &Generator{cfg: cfg, opts: opts, rng: rng}

	// The teacher shares the feature space but uses compact MLPs: its
	// job is to plant learnable structure, not to be expensive.
	tCfg := cfg
	tCfg.Name = cfg.Name + "-teacher"
	tCfg.BottomMLP = []int{16}
	tCfg.TopMLP = []int{16}
	g.teacher = core.NewModel(tCfg, rng.Split())

	for _, s := range cfg.Sparse {
		lg := xrand.NewBoundedZipf(rng.Split(), opts.LengthSkew, s.MaxPooled)
		g.lengthGen = append(g.lengthGen, lg)
		ir := xrand.New(int64(rng.Uint64()))
		g.indexGen = append(g.indexGen, ir.Zipf(opts.IndexSkew, uint64(s.HashSize-1)))
	}

	g.calibrateBias()
	return g
}

// calibrateBias estimates the logit shift needed to hit TargetCTR using a
// probe batch.
func (g *Generator) calibrateBias() {
	probe := g.rawBatch(256)
	logits := g.teacher.Forward(probe)
	// Mean teacher logit, scaled.
	var mean float64
	for _, z := range logits {
		mean += float64(z)
	}
	mean = mean * g.opts.TeacherScale / float64(len(logits))
	// logit(p) = ln(p/(1-p)); shift so scaled mean maps near target.
	target := g.opts.TargetCTR
	if target <= 0 || target >= 1 {
		target = 0.25
	}
	wantLogit := float32(math.Log(target / (1 - target)))
	g.bias = wantLogit - float32(mean)
}

// rawBatch generates features (no labels yet).
func (g *Generator) rawBatch(b int) *core.MiniBatch {
	return g.rawBatchInto(b, nil)
}

// rawBatchInto fills mb with freshly drawn features, reusing its dense
// matrix, bag index/offset slices, and label buffer when shapes allow.
// Pass nil to allocate a new batch.
func (g *Generator) rawBatchInto(b int, mb *core.MiniBatch) *core.MiniBatch {
	if mb == nil {
		mb = &core.MiniBatch{}
	}
	if mb.Dense == nil || mb.Dense.Rows != b || mb.Dense.Cols != g.cfg.DenseFeatures {
		mb.Dense = tensor.New(b, g.cfg.DenseFeatures)
	}
	for i := range mb.Dense.Data {
		mb.Dense.Data[i] = float32(g.rng.Norm())
	}
	if len(mb.Bags) != g.cfg.NumSparse() {
		mb.Bags = make([]embedding.Bag, g.cfg.NumSparse())
	}
	for f := range g.cfg.Sparse {
		hashSize := g.cfg.Sparse[f].HashSize
		meanTarget := g.cfg.Sparse[f].MeanPooled
		scale := meanTarget / g.lengthGen[f].Mean()
		bag := &mb.Bags[f]
		bag.Indices = bag.Indices[:0]
		bag.Offsets = append(bag.Offsets[:0], 0)
		for i := 0; i < b; i++ {
			// Draw a power-law length, rescaled toward the
			// configured mean, at least 1, truncated at max.
			n := int(float64(g.lengthGen[f].Sample())*scale + 0.5)
			if n < 1 {
				n = 1
			}
			if n > g.cfg.Sparse[f].MaxPooled {
				n = g.cfg.Sparse[f].MaxPooled
			}
			for k := 0; k < n; k++ {
				v := g.indexGen[f].Uint64()
				if v >= uint64(hashSize) {
					v = uint64(hashSize) - 1
				}
				bag.Indices = append(bag.Indices, int32(v))
			}
			bag.Offsets = append(bag.Offsets, int32(len(bag.Indices)))
		}
	}
	if cap(mb.Labels) < b {
		mb.Labels = make([]float32, b)
	}
	mb.Labels = mb.Labels[:b]
	clear(mb.Labels)
	// A recycled batch may carry dedup views from a previous producer
	// (e.g. an ingest pipeline); they describe the old bags, not the
	// freshly drawn ones.
	mb.DetachDedup()
	return mb
}

// NextBatch generates a labeled batch of b examples.
func (g *Generator) NextBatch(b int) *core.MiniBatch {
	return g.NextBatchInto(b, nil)
}

// NextBatchInto generates a labeled batch of b examples into mb, reusing
// its buffers (dense matrix, bag slices, labels) so a steady-state
// training loop recycles one MiniBatch instead of churning the heap. Pass
// nil to allocate fresh; the (possibly re-pointed) batch is returned.
func (g *Generator) NextBatchInto(b int, mb *core.MiniBatch) *core.MiniBatch {
	mb = g.rawBatchInto(b, mb)
	logits := g.teacher.Forward(mb)
	for i, z := range logits {
		p := tensor.Sigmoid(float32(g.opts.TeacherScale)*z + g.bias)
		if g.rng.Float32() < p {
			mb.Labels[i] = 1
		}
	}
	return mb
}

// Config returns the model config this generator serves.
func (g *Generator) Config() core.Config { return g.cfg }

// Fork returns a generator that shares this generator's hidden teacher —
// and therefore its label function — but draws features from an
// independent stream seeded by seed. Separate training streams and
// held-out evaluation sets must Fork one base generator so they see the
// same planted task.
func (g *Generator) Fork(seed int64) *Generator {
	rng := xrand.New(seed)
	t := g.teacher
	f := &Generator{
		cfg:  g.cfg,
		opts: g.opts,
		rng:  rng,
		// Weight-sharing clone: same label function, but private
		// activation buffers so forks are safe on separate goroutines.
		teacher: core.AssembleModel(t.Cfg, t.Bottom.ShareWeights(), t.Top.ShareWeights(), t.Tables),
		bias:    g.bias,
	}
	for _, s := range g.cfg.Sparse {
		f.lengthGen = append(f.lengthGen, xrand.NewBoundedZipf(rng.Split(), g.opts.LengthSkew, s.MaxPooled))
		ir := xrand.New(int64(rng.Uint64()))
		f.indexGen = append(f.indexGen, ir.Zipf(g.opts.IndexSkew, uint64(s.HashSize-1)))
	}
	return f
}

// EvalSet produces n batches for held-out evaluation.
func (g *Generator) EvalSet(batches, batchSize int) []*core.MiniBatch {
	out := make([]*core.MiniBatch, batches)
	for i := range out {
		out[i] = g.NextBatch(batchSize)
	}
	return out
}

// WriteShards materializes a synthetic dataset to dir in the ingest shard
// format: shards files of examplesPerShard examples each, plus the
// manifest. The examples are drawn from this generator's stream (the call
// advances it), so two fresh generators with equal seeds write
// bit-identical datasets — the determinism contract the ingest format
// tests pin. Batches are drawn in chunks of up to 256 examples.
func (g *Generator) WriteShards(dir string, shards, examplesPerShard int) error {
	w, err := ingest.NewShardWriter(dir, g.cfg)
	if err != nil {
		return err
	}
	var mb *core.MiniBatch
	for s := 0; s < shards; s++ {
		for left := examplesPerShard; left > 0; {
			chunk := left
			if chunk > 256 {
				chunk = 256
			}
			mb = g.NextBatchInto(chunk, mb)
			if err := w.Append(mb); err != nil {
				return err
			}
			left -= chunk
		}
		if err := w.EndShard(); err != nil {
			return err
		}
	}
	return w.Close()
}

// GeneratorSource adapts a Generator to core.BatchSource: the in-memory
// baseline feed the ingest_scaling experiment compares the on-disk
// pipeline against. Recycled batches refill in place, so steady-state
// feeding is allocation-free; the stream is infinite (NextBatch never
// returns io.EOF).
type GeneratorSource struct {
	g     *Generator
	batch int
	free  []*core.MiniBatch
}

// NewSource wraps the generator as a BatchSource producing batches of the
// given size.
func (g *Generator) NewSource(batchSize int) *GeneratorSource {
	return &GeneratorSource{g: g, batch: batchSize}
}

// NextBatch implements core.BatchSource.
func (s *GeneratorSource) NextBatch() (*core.MiniBatch, error) {
	var mb *core.MiniBatch
	if n := len(s.free); n > 0 {
		mb = s.free[n-1]
		s.free = s.free[:n-1]
	}
	return s.g.NextBatchInto(s.batch, mb), nil
}

// Recycle implements core.BatchSource.
func (s *GeneratorSource) Recycle(mb *core.MiniBatch) {
	if mb != nil {
		s.free = append(s.free, mb)
	}
}

// ReplaySource returns the positionable stream of NewGenerator(cfg, seed,
// opts) in batches of batchSize: every call builds a fresh generator and
// discards the first skip batches, which is what a production loader does
// on resume — seek, not re-sample. The run loop replays a rolled-back
// trainer through it.
func ReplaySource(cfg core.Config, seed int64, opts GeneratorOptions, batchSize int) core.SourceFactory {
	return func(skip int) (core.BatchSource, func(), error) {
		src := NewGenerator(cfg, seed, opts).NewSource(batchSize)
		for i := 0; i < skip; i++ {
			mb, _ := src.NextBatch() // a GeneratorSource never fails
			src.Recycle(mb)
		}
		return src, func() {}, nil
	}
}

// Reader streams batches through a bounded channel from a dedicated
// goroutine, mirroring the decoupled reader tier of the production
// pipeline. Close stops the producer.
type Reader struct {
	C    <-chan *core.MiniBatch
	stop chan struct{}
}

// NewReader starts a reader producing batches of the given size with the
// given channel depth.
func NewReader(g *Generator, batchSize, depth int) *Reader {
	ch := make(chan *core.MiniBatch, depth)
	stop := make(chan struct{})
	go func() {
		defer close(ch)
		for {
			b := g.NextBatch(batchSize)
			select {
			case ch <- b:
			case <-stop:
				return
			}
		}
	}()
	return &Reader{C: ch, stop: stop}
}

// Close terminates the producing goroutine.
func (r *Reader) Close() { close(r.stop) }
