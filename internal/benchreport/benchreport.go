// Package benchreport holds the one model shape that the repository's
// step measurements share: the root BenchmarkTrainStep family, the
// zero-allocation tests, and three bench/e2e workloads (hybrid_fp32,
// hybrid_int8, ckpt_interleaved). The benchmark of record is bench/e2e;
// this package stays only because bench/e2e/workloads.go imports
// BenchStepConfig from this path.
package benchreport

import "repro/internal/core"

// BenchStepConfig is the mid-size DLRM shared by every step measurement
// named in the package doc.
func BenchStepConfig() core.Config {
	return core.Config{
		Name:          "bench_step",
		DenseFeatures: 64,
		Sparse:        core.UniformSparse(8, 10000, 5),
		EmbeddingDim:  32,
		BottomMLP:     []int{128},
		TopMLP:        []int{128, 64},
		Interaction:   core.DotProduct,
	}
}
