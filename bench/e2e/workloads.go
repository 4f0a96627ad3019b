package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/benchreport"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

const (
	taskSeed      = 20210227 // the label function every seed trains against
	learningRate  = 0.05
	warmupSteps   = 30   // part of set-up: arenas sized, caches and rings filled
	evalExamples  = 8192 // held-out set, the same for every seed
	checkBatches  = 20   // composed step vs Trainer.Step, bit for bit
	ckptFullEvery = 8    // delta chain length before SaveCheckpoint compacts
)

// workload is one set of inputs. Every size here was probed on the
// 2-vCPU box; README.md records the timings that justified them.
type workload struct {
	name, why string
	cfg       core.Config
	batch     int
	// qualitySteps is the timed-step count after which held-out NE is
	// taken. It is fixed so that the number depends on the seed alone,
	// not on how many steps the machine fits into the run. On
	// ckpt_interleaved it stays inside the first epoch (warm-up and the
	// prefetch ring included), so every batch up to it is fresh; later
	// epochs repeat examples and that model memorises them (held-out NE
	// above 2 by the fifth). ingest_stream's model is too small to
	// memorise anything: its NE still falls after eight epochs, and at
	// 2000 steps it has settled enough to repeat within 2 % across seeds.
	qualitySteps int
	warmup, eval int // warm-up steps in set-up; held-out examples
	hybrid       bool
	wire         collective.WireFormat
	// fromDisk feeds the trainer from an ingest.Pipeline over shards
	// written in set-up; otherwise batches come from the generator,
	// outside the timed part of the iteration.
	fromDisk         bool
	dedup            bool
	shards, perShard int
	saveEvery        int // SaveCheckpoint every this many steps; 0 = never
}

// windowSteps is the length of a throughput window: long enough to hold
// every periodic cost (from disk, ten or five shard decodes and one full
// cycle of delta checkpoints with their compacting full save: 160 is
// saveEvery x ckptFullEvery), short enough that a 15 s run has tens of
// them.
func (w workload) windowSteps() int {
	if w.fromDisk {
		return 160
	}
	return 20
}

func workloads() []workload {
	ws := []workload{
		{
			name: "dense_heavy",
			why:  "wide MLPs over tiny tables: GEMM does nearly all the work, so tensor/nn changes show here and embedding changes must not",
			cfg: core.Config{
				Name: "dense_heavy", DenseFeatures: 256, Sparse: core.UniformSparse(4, 10000, 2),
				EmbeddingDim: 32, BottomMLP: []int{512, 256}, TopMLP: []int{512, 256}, Interaction: core.DotProduct,
			},
			batch: 64, qualitySteps: 800,
		},
		{
			name: "sparse_heavy",
			why:  "8 tables of 200k rows x dim 64 with 40 ids each under a one-layer MLP: lookup, scatter and row-wise AdaGrad dominate, GEMM is small",
			cfg: core.Config{
				Name: "sparse_heavy", DenseFeatures: 16, Sparse: uniformSparse(8, 200000, 40, 64),
				EmbeddingDim: 64, BottomMLP: []int{64}, TopMLP: []int{64}, Interaction: core.DotProduct,
			},
			batch: 128, qualitySteps: 1000,
		},
		{
			name: "hybrid_fp32",
			why:  "2-rank synchronous hybrid trainer with fp32 wires: the collective's memcpy and rendezvous path",
			cfg:  benchreport.BenchStepConfig(), batch: 256, qualitySteps: 1500,
			hybrid: true, wire: collective.WireFP32,
		},
		{
			name: "hybrid_int8",
			why:  "same trainer with int8 all-to-all and all-reduce wires: the codec path, so a codec change moves only this one and a rendezvous change moves both",
			cfg:  benchreport.BenchStepConfig(), batch: 256, qualitySteps: 1500,
			hybrid: true, wire: collective.WireINT8,
		},
		{
			name: "ingest_stream",
			why:  "fat records (16 features x 24 ids over small vocabularies) into a tiny model through ingest.Pipeline with dedup: the reader tier does most of the CPU work and the trainer waits for it",
			cfg: core.Config{
				Name: "ingest_stream", DenseFeatures: 16, Sparse: core.UniformSparse(16, 200, 24),
				EmbeddingDim: 2, BottomMLP: []int{4}, TopMLP: []int{4}, Interaction: core.Concat,
			},
			batch: 256, qualitySteps: 2000,
			fromDisk: true, dedup: true, shards: 16, perShard: 4096,
		},
		{
			name: "ckpt_interleaved",
			why:  "trainer fed from disk that checkpoints every 20 steps, then restores: writes beside reads on one filesystem, and restore reads what save wrote",
			cfg:  benchreport.BenchStepConfig(), batch: 128, qualitySteps: 450,
			fromDisk: true, shards: 16, perShard: 4096, saveEvery: 20,
		},
	}
	for i := range ws {
		ws[i].warmup, ws[i].eval = warmupSteps, evalExamples
	}
	return ws
}

// uniformSparse is core.UniformSparse with the per-example truncation,
// which that helper fixes at 32 ids, as a parameter.
func uniformSparse(n, hashSize int, meanPooled float64, maxPooled int) []core.SparseFeature {
	feats := core.UniformSparse(n, hashSize, meanPooled)
	for i := range feats {
		feats[i].MaxPooled = maxPooled
	}
	return feats
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// quick shrinks a workload to a smoke test: same code paths, tables and
// datasets two orders of magnitude smaller, MLPs an eighth as wide.
func (w workload) quick() workload {
	w.cfg.Sparse = append([]core.SparseFeature(nil), w.cfg.Sparse...)
	for i := range w.cfg.Sparse {
		w.cfg.Sparse[i].HashSize = max(w.cfg.Sparse[i].HashSize/100, 64)
	}
	narrow := func(widths []int) []int {
		out := make([]int, len(widths))
		for i, n := range widths {
			out[i] = max(n/8, 4)
		}
		return out
	}
	w.cfg.BottomMLP, w.cfg.TopMLP = narrow(w.cfg.BottomMLP), narrow(w.cfg.TopMLP)
	w.qualitySteps, w.warmup, w.eval = 20, 5, 512
	if w.fromDisk {
		w.shards, w.perShard = 2, 512
	}
	if w.saveEvery > 0 {
		w.saveEvery = 5
	}
	return w
}

// rig is one built workload: model, trainer, batch source and stores,
// plus the counters the harness keeps at the layer boundaries.
type rig struct {
	w    workload
	seed int64
	dir  string

	gen  *data.Generator
	eval []*core.MiniBatch
	mb   *core.MiniBatch // recycled generator batch

	model *core.Model // the model core/comp train; nil for hybrids
	core  *core.Trainer
	comp  *composed // traced generator workloads: Trainer.Step from public calls
	hyb   *hybrid.Trainer
	ds    *ingest.Dataset
	pipe  *ingest.Pipeline
	store *ckpt.Store

	setup       time.Duration // build + warm-up; harness work (eval set) excluded
	writeMBps   float64       // WriteShards, the write side of ingest
	untrainedNE float64

	step      int // iterations since build, warm-up included
	attempted int
	failed    int
	errs      []string

	bd       hybrid.StepBreakdown // summed over steps
	saveMs   []float64
	fullMs   []float64
	deltaMs  []float64
	saveByte int64
	deltaRow int64
}

func (r *rig) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// seedFor derives the seed of one input stream from the run's seed; the
// library only ever sees generated inputs.
func (r *rig) seedFor(stream int64) int64 { return r.seed*8 + stream }

// build constructs the workload and warms it up. With traced set, the
// generator workloads also get a composed-step twin for the traced pass.
func build(w workload, seed int64, traced bool, workdir string) (*rig, error) {
	r := &rig{w: w, seed: seed}
	t0 := time.Now()
	// The task is the same for every seed: the hidden teacher that plants
	// the labels, the held-out set and the model's initial weights. The
	// seed draws the inputs, that is the example stream and the shuffle.
	// Held-out NE then varies with the sample alone, not with how
	// learnable a random teacher or how lucky an initialisation is
	// (probes: 13 % range across seeds before, 5 % after, on ingest_stream).
	r.gen = data.NewGenerator(w.cfg, taskSeed, data.DefaultOptions()).Fork(r.seedFor(1))

	if w.fromDisk {
		dir, err := os.MkdirTemp(workdir, w.name+"-")
		if err != nil {
			return nil, err
		}
		r.dir = dir
		tw := time.Now()
		shardDir := filepath.Join(dir, "shards")
		if err := r.gen.WriteShards(shardDir, w.shards, w.perShard); err != nil {
			return nil, r.closeWith(err)
		}
		if r.ds, err = ingest.OpenDataset(shardDir); err != nil {
			return nil, r.closeWith(err)
		}
		r.writeMBps = float64(r.ds.Bytes()) / (1 << 20) / time.Since(tw).Seconds()
		r.pipe, err = ingest.Open(r.ds, w.cfg, ingest.Options{
			BatchSize: w.batch, Readers: 1, Dedup: w.dedup, Seed: r.seedFor(2),
		})
		if err != nil {
			return nil, r.closeWith(err)
		}
		if w.saveEvery > 0 {
			if r.store, err = ckpt.OpenStore(filepath.Join(dir, "ckpt")); err != nil {
				return nil, r.closeWith(err)
			}
		}
	}

	if w.hybrid {
		var err error
		r.hyb, err = hybrid.New(w.cfg, hybrid.Config{
			Ranks: 2, LR: learningRate, Overlap: true, Seed: taskSeed,
			WireA2A: w.wire, WireAllReduce: w.wire,
		})
		if err != nil {
			return nil, r.closeWith(err)
		}
	} else {
		r.model = core.NewModel(w.cfg, xrand.New(taskSeed))
		r.core = core.NewTrainer(r.model, core.TrainerConfig{LR: learningRate})
	}
	r.setup += time.Since(t0)

	// Harness work, not set-up of the system under test.
	r.eval = r.gen.Fork(taskSeed+1).EvalSet(w.eval/w.batch, w.batch)
	r.untrainedNE = r.heldoutNE()
	if traced && !w.fromDisk && !w.hybrid {
		r.comp = newComposed(r.model.Clone())
		r.checkComposed()
	}

	t0 = time.Now()
	for i := 0; i < w.warmup; i++ {
		if _, err := r.iterate(nil); err != nil {
			return nil, r.closeWith(err)
		}
	}
	r.setup += time.Since(t0)
	return r, nil
}

func (r *rig) closeWith(err error) error {
	r.close()
	return err
}

// close stops what build started and removes what it wrote.
func (r *rig) close() {
	if r.hyb != nil {
		r.hyb.Close()
	}
	if r.pipe != nil {
		r.pipe.Close()
	}
	if r.ds != nil {
		_ = r.ds.Close() // read-only handles
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir) // scratch data; a leftover only wastes disk
	}
}

// evalModel is the model view held-out NE is taken on.
func (r *rig) evalModel() *core.Model {
	if r.hyb != nil {
		return r.hyb.EvalModel()
	}
	return r.model
}

func (r *rig) heldoutNE() float64 { return core.Evaluate(r.evalModel(), r.eval).NE }

// iterate is one turn of the closed training loop as its one client sees
// it: fetch a batch, step, recycle, checkpoint when due. It returns the
// timed part: synthetic generation happens before the clock starts,
// fetching from the ingest pipeline after.
func (r *rig) iterate(tr *tracer) (time.Duration, error) {
	step := r.step
	r.step++
	var b *core.MiniBatch
	if r.pipe == nil {
		s := tr.begin("data.next_batch", -1, step)
		r.mb = r.gen.NextBatchInto(r.w.batch, r.mb)
		tr.end(s)
		b = r.mb
	}

	t0 := time.Now()
	root := tr.begin("iteration", -1, step)
	if r.pipe != nil {
		s := tr.begin("ingest.next_batch", root, step)
		var err error
		b, err = r.pipe.NextBatch()
		tr.end(s)
		r.attempted++
		if err != nil {
			r.fail("step %d: fetching batch: %v", step, err)
			return 0, err
		}
	}

	r.attempted++
	var loss float64
	switch {
	case r.hyb != nil:
		s := tr.begin("hybrid.step", root, step)
		l, bd, err := r.hyb.Step(b)
		tr.end(s)
		if err != nil {
			r.fail("step %d: %v", step, err)
			return 0, err
		}
		loss = l
		r.bd.Compute += bd.Compute
		r.bd.AllToAll += bd.AllToAll
		r.bd.AllReduce += bd.AllReduce
		r.bd.Exposed += bd.Exposed
		r.bd.Step += bd.Step
	case r.comp != nil && tr != nil:
		loss = r.comp.step(tr, root, step, b)
	default:
		s := tr.begin("core.step", root, step)
		loss = r.core.Step(b)
		tr.end(s)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		r.fail("step %d: loss %v", step, loss)
	}

	if r.pipe != nil {
		s := tr.begin("ingest.recycle", root, step)
		r.pipe.Recycle(b)
		tr.end(s)
	}
	if r.store != nil && (step+1)%r.w.saveEvery == 0 {
		s := tr.begin("ckpt.save", root, step)
		info, err := r.core.SaveCheckpoint(r.store, ckptFullEvery)
		tr.end(s)
		r.attempted++
		if err != nil {
			r.fail("step %d: checkpoint: %v", step, err)
			return 0, err
		}
		ms := float64(info.Wall) / 1e6
		r.saveMs = append(r.saveMs, ms)
		r.saveByte += info.Bytes
		if info.Kind == ckpt.KindFull {
			r.fullMs = append(r.fullMs, ms)
		} else {
			r.deltaMs = append(r.deltaMs, ms)
			r.deltaRow += int64(info.Rows)
		}
	}
	tr.end(root)
	return time.Since(t0), nil
}

// run iterates until minSteps are done and d has passed, appending each
// iteration's timed duration to *iterNs. The deadline is on wall time,
// untimed generation included, so a run ends when the caller expects.
func (r *rig) run(tr *tracer, iterNs *[]int64, minSteps int, d time.Duration) error {
	start := time.Now()
	for n := 0; n < minSteps || time.Since(start) < d; n++ {
		ns, err := r.iterate(tr)
		if err != nil {
			return err
		}
		*iterNs = append(*iterNs, int64(ns))
	}
	return nil
}

// composed is Trainer.Step rebuilt from the layers' public calls, so the
// harness can put a span around each layer without touching internal/.
// Its optimizers are its own: the trainer's are private.
type composed struct {
	m       *core.Model
	dense   *optim.Adagrad
	sparse  []*optim.RowWiseAdagrad
	pooled  []*tensor.Matrix
	grads   []*embedding.SparseGrad
	scratch *embedding.Scratch
	dLogits []float32

	lookups, gradRows int64 // summed over steps
}

func newComposed(m *core.Model) *composed {
	c := &composed{
		m:       m,
		dense:   optim.NewAdagrad(m.DenseParams(), learningRate),
		scratch: embedding.NewScratch(),
	}
	for _, tab := range m.Tables {
		c.sparse = append(c.sparse, optim.NewRowWiseAdagrad(tab, learningRate))
		c.grads = append(c.grads, embedding.NewSparseGrad(m.Cfg.EmbeddingDim))
	}
	return c
}

func (c *composed) step(tr *tracer, parent int32, step int, b *core.MiniBatch) float64 {
	B := b.Batch()
	if len(c.pooled) == 0 || c.pooled[0].Rows != B {
		c.pooled = c.pooled[:0]
		for range c.m.Tables {
			c.pooled = append(c.pooled, tensor.New(B, c.m.Cfg.EmbeddingDim))
		}
		c.dLogits = make([]float32, B)
	}

	s := tr.begin("embedding.lookup", parent, step)
	for i, tab := range c.m.Tables {
		tab.BagForwardInto(b.Bags[i], c.pooled[i], c.scratch)
		c.lookups += int64(b.Bags[i].TotalLookups())
	}
	tr.end(s)

	s = tr.begin("core.dense_fwd", parent, step)
	logits := c.m.ForwardPooled(b.Dense, c.pooled)
	tr.end(s)

	s = tr.begin("nn.loss", parent, step)
	loss := nn.BCEWithLogits(logits, b.Labels, c.dLogits)
	tr.end(s)

	s = tr.begin("core.dense_bwd", parent, step)
	c.m.ZeroGrad()
	dPooled := c.m.BackwardPooled(c.dLogits)
	tr.end(s)

	s = tr.begin("embedding.scatter", parent, step)
	for i, tab := range c.m.Tables {
		c.grads[i].Reset()
		tab.BagBackward(b.Bags[i], dPooled[i], c.grads[i])
	}
	tr.end(s)

	s = tr.begin("optim.dense", parent, step)
	c.dense.Step()
	tr.end(s)

	s = tr.begin("optim.sparse", parent, step)
	for i, o := range c.sparse {
		o.Apply(c.grads[i])
		c.gradRows += int64(c.grads[i].NumRows())
	}
	tr.end(s)
	return loss
}

// checkComposed trains the trainer and its composed twin on the same
// batches and requires the same loss, bit for bit, at every step. It
// also leaves the twin's arenas sized before the traced pass uses it.
func (r *rig) checkComposed() {
	g := r.gen.Fork(r.seedFor(5))
	var mb *core.MiniBatch
	for i := 0; i < checkBatches; i++ {
		mb = g.NextBatchInto(r.w.batch, mb)
		want := r.core.Step(mb)
		got := r.comp.step(nil, -1, 0, mb)
		r.attempted++
		if math.Float64bits(want) != math.Float64bits(got) {
			r.fail("composed step %d: loss %v, Trainer.Step %v", i, got, want)
		}
	}
	r.comp.lookups, r.comp.gradRows = 0, 0
}

// checkRestore restores the latest checkpoint into a fresh trainer and
// requires it to equal the saved trainer exactly. The loop checkpoints
// every saveEvery steps, so it first saves once more unless the tip
// already is the live state (a second save at one step would reuse the
// checkpoint's name).
func (r *rig) checkRestore() ckpt.RestoreInfo {
	r.attempted += 2
	_, tip, err := r.store.Latest()
	if err != nil {
		r.fail("latest checkpoint: %v", err)
		return ckpt.RestoreInfo{}
	}
	if tip == nil || tip.Step != r.core.Iter() {
		if _, err := r.core.SaveCheckpoint(r.store, ckptFullEvery); err != nil {
			r.fail("final checkpoint: %v", err)
			return ckpt.RestoreInfo{}
		}
	}
	fresh := core.NewTrainer(core.NewModel(r.w.cfg, xrand.New(r.seedFor(6))), core.TrainerConfig{LR: learningRate})
	info, err := fresh.RestoreCheckpoint(r.store)
	if err != nil {
		r.fail("restore: %v", err)
		return info
	}
	if msg := stateDiff(r.core.CkptState(), fresh.CkptState()); msg != "" {
		r.fail("restore: %s", msg)
	}
	return info
}

// stateDiff names the first difference between two trainer states, or
// returns "" when they are bit-identical.
func stateDiff(a, b *ckpt.ModelState) string {
	if a.Step != b.Step {
		return fmt.Sprintf("step %d != %d", b.Step, a.Step)
	}
	same := func(x, y []float32) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float32bits(x[i]) != math.Float32bits(y[i]) {
				return false
			}
		}
		return true
	}
	for i := range a.Dense {
		if !same(a.Dense[i], b.Dense[i]) || !same(a.DenseAccum[i], b.DenseAccum[i]) {
			return fmt.Sprintf("dense parameter %d differs", i)
		}
	}
	for i := range a.Tables {
		if !same(a.Tables[i].Weights.Data, b.Tables[i].Weights.Data) || !same(a.SparseAccum[i], b.SparseAccum[i]) {
			return fmt.Sprintf("table %d differs", i)
		}
	}
	return ""
}
