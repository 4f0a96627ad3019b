// Package recsim is the public API of this repository: a pure-Go
// reproduction of "Understanding Training Efficiency of Deep Learning
// Recommendation Models at Scale" (HPCA 2021).
//
// It exports two capabilities, the ones examples/quickstart and the
// godoc examples use:
//
//   - a real DLRM training stack: build a model (NewModel), train it on
//     synthetic clicks (NewGenerator, NewTrainer) and score it
//     (Evaluate);
//   - the analytic performance model of the paper's platforms (Big
//     Basin, Zion) and embedding placements: the §V test-suite and
//     Table II production models (TestSuiteModel, ProductionModels), a
//     capacity check (FitPlacement) and a per-iteration estimate
//     (EstimateGPU).
//
// Everything else runs through the commands: cmd/dlrmbench regenerates
// each table and figure of the paper and each subsystem study,
// cmd/dlrmtrain trains on the single or hybrid-parallel trainer with
// ingestion, checkpoints, faults, mixed precision and telemetry, and
// cmd/calibrate re-fits the performance model.
//
// Quick start:
//
//	cfg := recsim.TestSuiteModel(1024, 16)
//	bd, _ := recsim.EstimateGPU(cfg, "BigBasin", 1600, recsim.PlaceGPUMemory)
//	fmt.Println(bd.Throughput, bd.Bottleneck)
package recsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// Re-exported types: the ones the functions below take or return.
type (
	// ModelConfig describes a DLRM architecture (Fig 3).
	ModelConfig = core.Config
	// SparseFeature configures one categorical feature/table.
	SparseFeature = core.SparseFeature
	// Model is an instantiated DLRM with real parameters.
	Model = core.Model
	// MiniBatch is one training batch.
	MiniBatch = core.MiniBatch
	// Trainer couples a model with its optimizers.
	Trainer = core.Trainer
	// TrainerConfig holds single-node training hyper-parameters.
	TrainerConfig = core.TrainerConfig
	// EvalResult carries log loss, normalized entropy, and accuracy.
	EvalResult = core.EvalResult
	// Generator produces synthetic click batches with production-like
	// sparse statistics.
	Generator = data.Generator
	// PlacementStrategy selects where embedding tables live (Fig 8).
	PlacementStrategy = placement.Strategy
	// PlacementPlan is a feasibility-checked placement.
	PlacementPlan = placement.Plan
	// Breakdown is a per-iteration time/throughput/power estimate.
	Breakdown = perfmodel.Breakdown
)

// Placement strategies (Fig 8).
const (
	PlaceGPUMemory    = placement.GPUMemory
	PlaceSystemMemory = placement.SystemMemory
)

// InteractionDot selects the pairwise dot-product feature interaction.
const InteractionDot = core.DotProduct

// NewModel instantiates a DLRM with fresh parameters.
func NewModel(cfg ModelConfig, seed int64) *Model {
	return core.NewModel(cfg, xrand.New(seed))
}

// NewTrainer builds a single-node trainer.
func NewTrainer(m *Model, tc TrainerConfig) *Trainer { return core.NewTrainer(m, tc) }

// NewGenerator builds a deterministic synthetic data generator whose
// labels come from a planted teacher model.
func NewGenerator(cfg ModelConfig, seed int64) *Generator {
	return data.NewGenerator(cfg, seed, data.DefaultOptions())
}

// Evaluate scores a model on held-out batches.
func Evaluate(m *Model, batches []*MiniBatch) EvalResult { return core.Evaluate(m, batches) }

// TestSuiteModel builds the paper's §V design-space-exploration model
// with the given dense and sparse feature counts (MLP 512^3, hash 1e5).
func TestSuiteModel(dense, sparse int) ModelConfig {
	return workload.DefaultTestSuite(dense, sparse)
}

// ProductionModels returns M1prod, M2prod, and M3prod (Table II).
func ProductionModels() []ModelConfig { return workload.ProdModels() }

// FitPlacement checks whether the model fits on the platform under the
// strategy and returns the concrete plan. remotePS of 0 auto-sizes the
// remote parameter-server fleet.
func FitPlacement(cfg ModelConfig, platformName string, strategy PlacementStrategy, remotePS int) (PlacementPlan, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return PlacementPlan{}, err
	}
	return placement.Fit(cfg, p, strategy, remotePS)
}

// EstimateGPU estimates one training iteration of the model on a GPU
// platform with the given placement.
func EstimateGPU(cfg ModelConfig, platformName string, batch int, strategy PlacementStrategy) (Breakdown, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return Breakdown{}, err
	}
	plan, err := placement.Fit(cfg, p, strategy, 0)
	if err != nil {
		return Breakdown{}, err
	}
	return perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: p, Batch: batch, Plan: plan})
}

// Version identifies the reproduction release.
const Version = "8.0.0"

// Describe returns a one-line summary of a model config.
func Describe(cfg ModelConfig) string {
	return fmt.Sprintf("%s: %d dense, %d sparse, %s embeddings, %.0f lookups/example",
		cfg.Name, cfg.DenseFeatures, cfg.NumSparse(),
		core.HumanBytes(cfg.EmbeddingBytes()), cfg.LookupsPerExample())
}
