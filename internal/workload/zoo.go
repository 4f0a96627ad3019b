// Package workload encodes the models and run populations the paper
// studies: the three production recommendation models of Table II
// (M1prod, M2prod, M3prod) with per-table hash-size and feature-length
// distributions matching Fig 6/7, the parameterized test suite of §V,
// the production cluster setups of Table III, the workload catalog of
// Fig 2, and the fleet samplers behind Fig 5 and Fig 9.
package workload

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/xrand"
)

// Test-suite constants (§V): fixed embedding dimension, hash size 100000
// unless swept.
const (
	TestSuiteEmbeddingDim = 32
	TestSuiteHashSize     = 100000
	TestSuiteMeanPooled   = 10.0
)

// TestSuiteConfig builds the §V design-space-exploration model: the given
// number of dense and sparse features, uniform sparse features, and MLP
// stacks of the given width/depth on both bottom and top (the paper's
// default is 512³).
func TestSuiteConfig(dense, sparse, mlpWidth, mlpLayers, hashSize int) core.Config {
	if mlpWidth <= 0 {
		mlpWidth = 512
	}
	if mlpLayers <= 0 {
		mlpLayers = 3
	}
	if hashSize <= 0 {
		hashSize = TestSuiteHashSize
	}
	mlp := make([]int, mlpLayers)
	for i := range mlp {
		mlp[i] = mlpWidth
	}
	return core.Config{
		Name:          fmt.Sprintf("test-d%d-s%d-mlp%d^%d-h%d", dense, sparse, mlpWidth, mlpLayers, hashSize),
		DenseFeatures: dense,
		Sparse:        core.UniformSparse(sparse, hashSize, TestSuiteMeanPooled),
		EmbeddingDim:  TestSuiteEmbeddingDim,
		BottomMLP:     mlp,
		TopMLP:        mlp,
		Interaction:   core.Concat,
	}
}

// DefaultTestSuite returns the §V defaults for a dense/sparse pair:
// MLP 512³ and hash size 100000.
func DefaultTestSuite(dense, sparse int) core.Config {
	return TestSuiteConfig(dense, sparse, 512, 3, TestSuiteHashSize)
}

// SweepDense and SweepSparse are the §V grid axes.
var (
	SweepDense  = []int{64, 256, 1024, 4096}
	SweepSparse = []int{4, 16, 64, 128}
	// SweepCPUBatch / SweepGPUBatch are the Fig 11 batch axes.
	SweepCPUBatch = []int{100, 200, 400}
	SweepGPUBatch = []int{400, 800, 1600, 3200}
	// SweepHash is the Fig 12 hash-size axis.
	SweepHash = []int{100000, 400000, 3200000, 25600000}
	// SweepMLP is the Fig 13 width/depth grid.
	SweepMLPWidths = []int{64, 256, 1024}
	SweepMLPDepths = []int{2, 3, 4}
)

// prodTableSpec synthesizes per-table hash sizes and mean feature lengths
// with the distributional shape of Fig 6/7: log-normal hash sizes clipped
// to [30, 20M] and power-law mean lengths, both rescaled to hit the
// Table II model means.
func prodTableSpec(n int, meanHash float64, meanLen float64, seed int64) []core.SparseFeature {
	rng := xrand.New(seed)
	// Hash sizes: log-normal with heavy spread, clipped to the paper's
	// observed [30, 20M] range (Fig 6). Because clipping shrinks the
	// mean, the scale is found by bisection so the post-clip mean hits
	// the Table II value.
	const sigma = 1.6
	hashes := make([]float64, n)
	for i := range hashes {
		hashes[i] = rng.LogNormal(0, sigma)
	}
	clipMean := func(scale float64) float64 {
		var sum float64
		for _, h := range hashes {
			v := h * scale
			if v < 30 {
				v = 30
			}
			if v > 20_000_000 {
				v = 20_000_000
			}
			sum += v
		}
		return sum / float64(n)
	}
	loS, hiS := 1.0, 4e7
	for i := 0; i < 60; i++ {
		mid := (loS + hiS) / 2
		if clipMean(mid) < meanHash {
			loS = mid
		} else {
			hiS = mid
		}
	}
	scaleH := (loS + hiS) / 2
	// Mean lengths: bounded power law, then rescale to the target mean.
	lz, lr := xrand.NewZipf(1.05, 64), rng.Split()
	lens := make([]float64, n)
	var sumL float64
	for i := range lens {
		lens[i] = float64(lz.Draw(lr))
		sumL += lens[i]
	}
	scaleL := meanLen * float64(n) / sumL

	feats := make([]core.SparseFeature, n)
	for i := range feats {
		h := int(hashes[i] * scaleH)
		if h < 30 {
			h = 30
		}
		if h > 20_000_000 {
			h = 20_000_000
		}
		l := lens[i] * scaleL
		if l < 1 {
			l = 1
		}
		maxP := int(l * 3)
		if maxP < 8 {
			maxP = 8
		}
		feats[i] = core.SparseFeature{
			Name:       fmt.Sprintf("f%03d", i),
			HashSize:   h,
			MeanPooled: l,
			MaxPooled:  maxP,
		}
	}
	return feats
}

// M1Prod returns the Table II M1prod model: 30 sparse features averaging
// 5.7M hash rows and 28 lookups, 800 dense features, 512-wide bottom MLP,
// 512³ top MLP, embedding dim 64 (tens of GB of tables).
func M1Prod() core.Config {
	return core.Config{
		Name:          "M1prod",
		DenseFeatures: 800,
		Sparse:        prodTableSpec(30, 5.7e6, 28, 101),
		EmbeddingDim:  64,
		BottomMLP:     []int{512},
		TopMLP:        []int{512, 512, 512},
		Interaction:   core.Concat,
	}
}

// M2Prod returns the Table II M2prod model: 13 sparse features averaging
// 7.3M hash rows and 17 lookups, 504 dense features, 1024-wide bottom
// MLP, 1024-1024-512 top MLP, embedding dim 128 (tens of GB).
func M2Prod() core.Config {
	return core.Config{
		Name:          "M2prod",
		DenseFeatures: 504,
		Sparse:        prodTableSpec(13, 7.3e6, 17, 202),
		EmbeddingDim:  128,
		BottomMLP:     []int{1024},
		TopMLP:        []int{1024, 1024, 512},
		Interaction:   core.Concat,
	}
}

// M3Prod returns the Table II M3prod model: 127 sparse features averaging
// 3.7M hash rows and 49 lookups, 809 dense features, 512-wide bottom MLP,
// 512-256-512-256-512 top MLP, embedding dim 128 (hundreds of GB — the
// model that does not fit on a Big Basin's GPU memory).
func M3Prod() core.Config {
	return core.Config{
		Name:          "M3prod",
		DenseFeatures: 809,
		Sparse:        prodTableSpec(127, 3.7e6, 49, 303),
		EmbeddingDim:  128,
		BottomMLP:     []int{512},
		TopMLP:        []int{512, 256, 512, 256, 512},
		Interaction:   core.Concat,
	}
}

// ProdModels returns the three Table II models in order.
func ProdModels() []core.Config {
	return []core.Config{M1Prod(), M2Prod(), M3Prod()}
}

// ClusterSetup is a production CPU training deployment (Table III).
type ClusterSetup struct {
	Trainers int
	// SparsePS and DensePS split the Table III "parameter servers"
	// count; the dense master is one of them.
	SparsePS int
	DensePS  int
	// TrainerBatch is the per-trainer mini-batch.
	TrainerBatch int
	// OptimalGPUBatch is the Table III saturation batch on Big Basin.
	OptimalGPUBatch int
	// HogwildThreads is the intra-trainer async thread count.
	HogwildThreads int
}

// ProdSetup returns the Table III CPU cluster setup and GPU porting
// parameters for a production model name.
func ProdSetup(name string) (ClusterSetup, error) {
	switch name {
	case "M1prod":
		return ClusterSetup{Trainers: 6, SparsePS: 7, DensePS: 1,
			TrainerBatch: 200, OptimalGPUBatch: 1600, HogwildThreads: 1}, nil
	case "M2prod":
		return ClusterSetup{Trainers: 20, SparsePS: 15, DensePS: 1,
			TrainerBatch: 200, OptimalGPUBatch: 3200, HogwildThreads: 1}, nil
	case "M3prod":
		return ClusterSetup{Trainers: 8, SparsePS: 7, DensePS: 1,
			TrainerBatch: 200, OptimalGPUBatch: 800, HogwildThreads: 4}, nil
	}
	return ClusterSetup{}, fmt.Errorf("workload: no production setup for %q", name)
}

// TrainingClass describes one Fig 2 workload family by order-of-magnitude
// training frequency and duration (hours).
type TrainingClass struct {
	Name          string
	FreqEveryHrs  float64 // typical gap between training runs
	DurationHrs   float64 // typical run duration
	ModelFamily   string
	ShareOfCycles float64 // rough share of fleet training cycles
}

// Fig2Catalog returns the workload classes of Fig 2. Recommendation
// workloads (News Feed, Search) train the most frequently; the paper
// reports >50% of all AI training cycles go to recommendation models.
func Fig2Catalog() []TrainingClass {
	return []TrainingClass{
		{Name: "News Feed", FreqEveryHrs: 6, DurationHrs: 12, ModelFamily: "recommendation (DLRM)", ShareOfCycles: 0.35},
		{Name: "Search", FreqEveryHrs: 24, DurationHrs: 24, ModelFamily: "recommendation (DLRM)", ShareOfCycles: 0.20},
		{Name: "Translation", FreqEveryHrs: 7 * 24, DurationHrs: 72, ModelFamily: "RNN", ShareOfCycles: 0.10},
		{Name: "Facer", FreqEveryHrs: 30 * 24, DurationHrs: 24 * 7, ModelFamily: "CNN", ShareOfCycles: 0.05},
	}
}

// RunSample is one sampled training-run configuration for the fleet
// distributions (Fig 5 / Fig 9).
type RunSample struct {
	Trainers int
	ParamSrv int
	// Model jitter relative to a base ranking model: ML engineers add
	// and remove features run to run (§III).
	DenseFeatures int
	SparseCount   int
	MeanPooled    float64
}

// FleetSampler draws training-run configurations with the population
// shape the paper reports: >40% of runs reuse the modal trainer count
// while parameter-server counts vary widely with memory requirements.
type FleetSampler struct {
	rng *xrand.RNG
}

// NewFleetSampler returns a deterministic sampler.
func NewFleetSampler(seed int64) *FleetSampler {
	return &FleetSampler{rng: xrand.New(seed)}
}

// Sample draws one run.
func (f *FleetSampler) Sample() RunSample {
	r := f.rng
	// Trainers: 42% at the modal count (10); the rest spread
	// geometrically up to ~50 (Fig 9 left).
	trainers := 10
	if r.Float64() >= 0.42 {
		trainers = 2 + int(r.Exp(0.12))
		if trainers > 50 {
			trainers = 50
		}
	}
	// Parameter servers: wide, memory-driven spread (Fig 9 right).
	ps := 1 + int(r.Exp(0.09))
	if ps > 50 {
		ps = 50
	}
	dense := 400 + r.Intn(800)
	sparse := 20 + r.Intn(60)
	pooled := 5 + 40*r.Float64()
	return RunSample{
		Trainers:      trainers,
		ParamSrv:      ps,
		DenseFeatures: dense,
		SparseCount:   sparse,
		MeanPooled:    pooled,
	}
}
