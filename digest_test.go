package recsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/benchreport"
	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/tensor"
)

// denseDigests pins the bits the core trainer trains on the two dense
// shapes: a SHA-256 over every step's loss rounded to float32, then every dense weight and
// AdaGrad accumulator, then every table's weights and row accumulators
// (digestSteps steps, fp32 tables, AdaGrad, LR 0.05, data seed 2, model
// seed 1). Every configuration TestDenseDigest runs must reproduce them:
// vector kernels on and off, GOMAXPROCS 1 and 2, amd64 and 386. A change
// that alters them on purpose says why in CHANGES.md; a failing run
// prints the new value (go test -run '^TestDenseDigest$' .).
var denseDigests = map[string]string{
	"dense_heavy": "85e06d3bd04575a95e5b9798d6f1791791e61086f08e526e9ac1e1b1598d743a",
	"bench_step":  "73699bc21a460998f1022efcc506cc60d1865712109fd9549327bcb371525a0e",
}

const digestSteps = 40

// TestDenseDigest trains the dense_heavy and BenchStepConfig shapes for
// digestSteps steps in every kernel and GOMAXPROCS configuration and
// compares each run's digest with the committed one.
func TestDenseDigest(t *testing.T) {
	denseHeavy := ModelConfig{
		Name: "dense_heavy", DenseFeatures: 256, Sparse: core.UniformSparse(4, 10000, 2),
		EmbeddingDim: 32, BottomMLP: []int{512, 256}, TopMLP: []int{512, 256}, Interaction: InteractionDot,
	}
	kernels := []bool{false}
	if vectorKernelsOn() {
		kernels = append(kernels, true)
		if raceDetectorEnabled {
			// The instrumented Go kernels take over a minute here; the
			// plain run and the 386 build cover them.
			kernels = kernels[1:]
		}
	}
	for _, c := range []struct {
		name  string
		cfg   ModelConfig
		batch int
	}{
		{"dense_heavy", denseHeavy, 64},
		{"bench_step", benchreport.BenchStepConfig(), 128},
	} {
		gen := NewGenerator(c.cfg, 2)
		batches := make([]*MiniBatch, digestSteps)
		for i := range batches {
			batches[i] = gen.NextBatch(c.batch)
		}
		for _, vector := range kernels {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/vector=%v/procs=%d", c.name, vector, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
					got := trainDigest(c.cfg, digestSteps, func(i int) *MiniBatch { return batches[i] }, nil)
					if want := denseDigests[c.name]; got != want {
						t.Errorf("digest %s, want %s", got, want)
					}
				})
			}
		}
	}
}

// ingestDigest pins the bits the core trainer trains at the bench/e2e
// ingest_stream shape (16 features × 24 ids over 200-row tables, dim 2,
// [4]/[4] MLPs, batch 256) fed by an ingest.Pipeline with one reader
// from ingestShards shards of ingestPerShard examples written by a data
// seed 2 generator, for ingestSteps steps. Dedup on and off must both
// give it: on, the reader builds each batch's dedup view; off, the
// trainer's sparse step builds it. Where it is built changes no sum.
const (
	ingestDigest   = "696d35e8f3064b3dcb4748dac437a915e8879bbbfd43a256f84b5e03dddcd076"
	ingestSteps    = 50
	ingestShards   = 4
	ingestPerShard = 1024
)

// ingestStreamConfig is the bench/e2e ingest_stream model.
func ingestStreamConfig() ModelConfig {
	return ModelConfig{
		Name: "ingest_stream", DenseFeatures: 16, Sparse: core.UniformSparse(16, 200, 24),
		EmbeddingDim: 2, BottomMLP: []int{4}, TopMLP: []int{4}, Interaction: core.Concat,
	}
}

// TestIngestDigest trains the ingest_stream shape from disk through the
// reader pipeline with dedup on and off (reader-built and step-built
// views), the vector kernels on and off
// and GOMAXPROCS 1 and 2, and compares every run's digest with the
// committed one. The narrow rows (dim 2, 4-wide layers) run the sparse
// kernels' and the GEMMs' under-8-column paths, which TestDenseDigest's
// shapes never reach.
func TestIngestDigest(t *testing.T) {
	cfg := ingestStreamConfig()
	dir := t.TempDir()
	if err := NewGenerator(cfg, 2).WriteShards(dir, ingestShards, ingestPerShard); err != nil {
		t.Fatal(err)
	}
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	kernels := []bool{false}
	if vectorKernelsOn() {
		kernels = append(kernels, true)
	}
	for _, dedup := range []bool{false, true} {
		for _, vector := range kernels {
			for _, procs := range []int{1, 2} {
				t.Run(fmt.Sprintf("dedup=%v/vector=%v/procs=%d", dedup, vector, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
					pipe, err := ingest.Open(ds, cfg, ingest.Options{
						BatchSize: 256, Readers: 1, Dedup: dedup, Seed: 1,
					})
					if err != nil {
						t.Fatal(err)
					}
					defer pipe.Close()
					next := func(int) *MiniBatch {
						mb, err := pipe.NextBatch()
						if err != nil {
							t.Fatal(err)
						}
						if got := mb.DedupFor(0) != nil; got != dedup {
							t.Fatalf("batch carries a dedup view: %v, want %v", got, dedup)
						}
						return mb
					}
					got := trainDigest(cfg, ingestSteps, next, pipe.Recycle)
					if got != ingestDigest {
						t.Errorf("digest %s, want %s", got, ingestDigest)
					}
				})
			}
		}
	}
}

// hybridDigests pins the bits the synchronous hybrid trainer trains at
// the bench_step shape: the trainDigest hash of its CkptState (rank 0's
// dense replica and every owner's tables) after digestSteps steps of the
// data seed 2 batches, hybrid.Config{Seed: 1, LR: 0.05}. The ring sums
// the dense gradients in an order that depends on the rank count, so
// each rank count and wire has its own digest; one rank trains the core
// trainer's bits (denseDigests["bench_step"]). Overlap on and off must
// give the same digest: overlap moves the all-reduce, not the sums.
var hybridDigests = map[string]string{
	"ranks=2/fp32": "b1dacb77fc4f30c4b9b116fa3044edf8d8c1b2b10a6c350850f3d6bb7e0fe458",
	"ranks=4/fp32": "c15acdf060bddcd2ba5347cae8a084a604dbdac8b61c9c09de9c02aafab81348",
	"ranks=2/int8": "288fd47dbf3d7df290d7a26d939a9408768f822fd8d494068b76d1462066563f",
	"ranks=4/int8": "276639d0773c329797aa43a8d1f278de61311d906f9c1c6d54019c09b25a42d3",
}

// TestHybridDigest trains the bench_step shape on the hybrid trainer at
// 1, 2 and 4 ranks on fp32 wires, overlap on and off, and at 2 and 4
// ranks on int8 wires with overlap on, in every kernel and GOMAXPROCS
// configuration, and compares each run's digest with the committed one.
func TestHybridDigest(t *testing.T) {
	cfg := benchreport.BenchStepConfig()
	gen := NewGenerator(cfg, 2)
	batches := make([]*MiniBatch, digestSteps)
	for i := range batches {
		batches[i] = gen.NextBatch(128)
	}
	kernels := []bool{false}
	if vectorKernelsOn() {
		kernels = append(kernels, true)
		if raceDetectorEnabled {
			kernels = kernels[1:]
		}
	}
	for _, c := range []struct {
		ranks int
		wire  collective.WireFormat
	}{
		{1, collective.WireFP32}, {2, collective.WireFP32}, {4, collective.WireFP32},
		{2, collective.WireINT8}, {4, collective.WireINT8},
	} {
		want := hybridDigests[fmt.Sprintf("ranks=%d/%v", c.ranks, c.wire)]
		if c.ranks == 1 {
			want = denseDigests["bench_step"]
		}
		overlaps := []bool{false, true}
		if c.wire != collective.WireFP32 {
			overlaps = overlaps[1:]
		}
		for _, overlap := range overlaps {
			for _, vector := range kernels {
				for _, procs := range []int{1, 2} {
					name := fmt.Sprintf("ranks=%d/%v/overlap=%v/vector=%v/procs=%d", c.ranks, c.wire, overlap, vector, procs)
					t.Run(name, func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
						ht, err := hybrid.New(cfg, hybrid.Config{
							Ranks: c.ranks, Seed: 1, LR: 0.05, Overlap: overlap,
							WireA2A: c.wire, WireAllReduce: c.wire,
						})
						if err != nil {
							t.Fatal(err)
						}
						defer ht.Close()
						step := func(mb *MiniBatch) float64 {
							loss, _, err := ht.Step(mb)
							if err != nil {
								t.Fatal(err)
							}
							return loss
						}
						got := runDigest(digestSteps, func(i int) *MiniBatch { return batches[i] }, nil, step, ht.CkptState)
						if got != want {
							t.Errorf("digest %s, want %s", got, want)
						}
					})
				}
			}
		}
	}
}

// vectorKernelsOn reports whether this CPU runs the vector kernels.
func vectorKernelsOn() bool {
	was := tensor.SetVectorKernels(true)
	return tensor.SetVectorKernels(was)
}

// trainDigest trains a fresh model for steps steps, step i on the batch
// next(i) returns, and hashes what it trained. done, when set, takes
// each batch back after its step.
func trainDigest(cfg ModelConfig, steps int, next func(i int) *MiniBatch, done func(*MiniBatch)) string {
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	return runDigest(steps, next, done, tr.Step, tr.CkptState)
}

// runDigest runs step on next(0) … next(steps-1) and returns a SHA-256
// over every step's loss rounded to float32, then the dense weights and
// accumulators and the tables and row accumulators of state().
func runDigest(steps int, next func(i int) *MiniBatch, done func(*MiniBatch),
	step func(*MiniBatch) float64, state func() *ckpt.ModelState) string {
	h := sha256.New()
	var b [4]byte
	floats := func(xs ...float32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	for i := range steps {
		mb := next(i)
		floats(float32(step(mb)))
		if done != nil {
			done(mb)
		}
	}
	st := state()
	for i := range st.Dense {
		floats(st.Dense[i]...)
		floats(st.DenseAccum[i]...)
	}
	for i, tab := range st.Tables {
		floats(tab.Weights.Data...)
		floats(st.SparseAccum[i]...)
	}
	return hex.EncodeToString(h.Sum(nil))
}
