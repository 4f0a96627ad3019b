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
	"dense_heavy": "27050cc20719613f02ae7eca84e8dc2e85ec5b340986da6eeeb0086c08d180af",
	"bench_step":  "50cbe62c34b30ae4989194f462a751c8ddea0848fa0a463c046562de8c4d3604",
}

const digestSteps = 40

// TestDenseDigest trains the dense_heavy and BenchStepConfig shapes for
// digestSteps steps in every kernel and GOMAXPROCS configuration and
// compares each run's digest with the committed one.
func TestDenseDigest(t *testing.T) {
	denseHeavy := ModelConfig{
		Name: "dense_heavy", DenseFeatures: 256, Sparse: UniformSparse(4, 10000, 2),
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
					got := trainDigest(c.cfg, batches)
					if want := denseDigests[c.name]; got != want {
						t.Errorf("digest %s, want %s", got, want)
					}
				})
			}
		}
	}
}

// vectorKernelsOn reports whether this CPU runs the vector kernels.
func vectorKernelsOn() bool {
	was := tensor.SetVectorKernels(true)
	return tensor.SetVectorKernels(was)
}

// trainDigest trains a fresh model on batches and hashes what it trained.
func trainDigest(cfg ModelConfig, batches []*MiniBatch) string {
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	h := sha256.New()
	var b [4]byte
	floats := func(xs ...float32) {
		for _, x := range xs {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
			h.Write(b[:])
		}
	}
	for _, mb := range batches {
		floats(float32(tr.Step(mb)))
	}
	st := tr.CkptState()
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
