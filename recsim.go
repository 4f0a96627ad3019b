// Package recsim is the public API of this repository: a pure-Go
// reproduction of "Understanding Training Efficiency of Deep Learning
// Recommendation Models at Scale" (HPCA 2021).
//
// It bundles eleven capabilities:
//
//   - a real DLRM training stack (models, embedding tables, optimizers,
//     synthetic click data, single-process and hybrid trainers) whose
//     hot path is allocation-free and kernel-fused: tiled GEMM variants
//     on a persistent worker pool, fused bias/ReLU epilogues, slab
//     sparse gradients, and recycled batch arenas (see DESIGN.md, and
//     bench/e2e for the measured end-to-end cost);
//   - a synchronous hybrid-parallel training engine (internal/hybrid on
//     internal/collective): data-parallel MLP replicas synchronized with
//     a bucketed ring all-reduce and model-parallel embedding shards
//     exchanged with all-to-all, over real in-process collectives whose
//     byte meters are validated against the analytic volumes
//     (HybridAllToAllBytes, HybridAllReduceBytes);
//   - a real data-ingestion subsystem (internal/ingest): a compact
//     sharded on-disk record format plus a staged reader pipeline —
//     parallel shard decode, bounded shuffle, RecD-style within-batch
//     sparse dedup, recycled prefetch ring with explicit backpressure —
//     feeding either trainer through BatchSource, with per-stage meters
//     (read MB/s, dedup ratio, occupancy, trainer starvation);
//   - an analytic + discrete-event performance model of the paper's
//     hardware platforms (dual-socket CPU, Big Basin, Zion) and embedding
//     placement strategies;
//   - a tiered embedding-memory subsystem (internal/memtier) that stages
//     tables across HBM / host DRAM / remote DRAM / NVM, simulates
//     hot-row caching with pluggable eviction policies (LRU, LFU, CLOCK),
//     and exploits the §III-A2 power-law access skew via the Tiered
//     placement strategy (PlaceTiered);
//   - a unified zero-allocation telemetry layer (internal/telemetry): a
//     slab-backed per-shard span tracer covering every phase of the
//     training step and ingestion pipeline, a lock-free counter/gauge
//     registry absorbing every subsystem meter, Chrome trace_event and
//     expvar/pprof exporters, and an attribution report joining observed
//     span timings against the analytic perfmodel per phase;
//   - a cluster-wide performance doctor on top of that telemetry:
//     zero-allocation log-bucketed quantile histograms on every phase
//     (p50/p95/p99/p999, mergeable across rank shards), a straggler
//     detector joining per-rank rendezvous-wait meters into an
//     imbalance index with slowest-rank attribution, per-table hot-row
//     skew summaries, and a boundedness classifier (Diagnose) fusing
//     observed phases with the analytic model;
//   - durable checkpoint/restore and elastic fault tolerance
//     (internal/ckpt): sharded content-hashed checkpoints (per-table
//     embedding shards, dense replica, optimizer state) under a
//     Merkle-verified manifest, SparseGrad-driven incremental deltas
//     with periodic compaction, a fault-injection seam in the
//     collectives, and a kill→restore→rejoin recovery loop whose
//     resumed loss curve is bit-identical to an uninterrupted run;
//   - mixed-precision training (internal/tensor, internal/collective):
//     bf16/fp16 embedding-table storage with fp32 master weights and
//     split-SGD row re-quantization, plus compressed collective wire
//     formats (fp16/bf16 halving and int8 per-chunk-scaled quartering
//     of the all-to-all and all-reduce payloads), validated by the
//     mixed_precision experiment against the fp32 loss baseline and
//     the dtype-aware analytic volumes;
//   - a training flight recorder (OpenFlightRecorder): a zero-allocation
//     per-step time-series ring (loss, throughput, phase/comm/wait/
//     starvation ns, straggler index) fed by both trainers, online
//     anomaly detectors (EWMA loss z-score, NaN guard, throughput dip,
//     ingest starvation and straggler-index crossings) that
//     localize incidents to the offending step, and trigger-dumped
//     black-box bundles — trace window, metrics snapshot, series tail,
//     doctor verdict — plus a live /timeseries endpoint and an ASCII
//     dashboard (cmd/dlrmtrain -telemetry.watch), validated by the
//     flight_recorder experiment's ±1-step localization asserts;
//   - runners that regenerate every table and figure of the paper's
//     evaluation, plus an MTrainS-style tiered-memory sweep, a
//     hybrid-parallel ranks × batch scaling study, an
//     observed-vs-predicted telemetry attribution study, and an
//     elastic-recovery study (recovery wall time, bytes restored,
//     loss-curve bit-identity across 1/2/4 ranks).
//
// Quick start:
//
//	cfg := recsim.TestSuiteModel(1024, 16)
//	bd, _ := recsim.EstimateGPU(cfg, "BigBasin", 1600, recsim.PlaceGPUMemory)
//	fmt.Println(bd.Throughput, bd.Bottleneck)
package recsim

import (
	"fmt"
	"io"
	"net/http"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
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

// Re-exported core types. The aliases make the public surface explicit
// while keeping implementations in internal packages.
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
	// Platform is a hardware platform from the paper's Table I.
	Platform = hw.Platform
	// PlacementStrategy selects where embedding tables live (Fig 8).
	PlacementStrategy = placement.Strategy
	// PlacementPlan is a feasibility-checked placement.
	PlacementPlan = placement.Plan
	// Breakdown is a per-iteration time/throughput/power estimate.
	Breakdown = perfmodel.Breakdown
	// ExperimentResult is one regenerated paper artifact.
	ExperimentResult = experiments.Result
	// ExperimentOptions tunes experiment execution.
	ExperimentOptions = experiments.Options
	// MemoryTier is one level of a platform's embedding memory
	// hierarchy (HBM, host DRAM, remote DRAM, NVM).
	MemoryTier = hw.MemTier
	// MemoryTierKind orders the hierarchy levels.
	MemoryTierKind = hw.MemTierKind
	// TierAssignment maps embedding tables onto the hierarchy plus the
	// HBM hot-row cache carved out of the top tier.
	TierAssignment = memtier.Assignment
	// TieredOptions tunes the Tiered placement strategy (trace profile,
	// Zipf skew, cache fraction, eviction policy).
	TieredOptions = placement.TieredOptions
	// TierAssignOptions is the memtier planner's knob set, embedded in
	// TieredOptions.Assign.
	TierAssignOptions = memtier.AssignOptions
	// CachePolicy is a pluggable row-cache eviction policy (LRU, LFU,
	// CLOCK).
	CachePolicy = memtier.Policy
	// HybridTrainer is the synchronous hybrid-parallel training engine:
	// data-parallel MLPs (ring all-reduce) + model-parallel embedding
	// shards (all-to-all) over real in-process collectives.
	HybridTrainer = hybrid.Trainer
	// HybridConfig holds the hybrid trainer's hyper-parameters (ranks,
	// optimizer, all-reduce bucketing/overlap, link model).
	HybridConfig = hybrid.Config
	// HybridStepBreakdown decomposes one synchronous step into compute /
	// all-to-all / all-reduce / exposed-comm time plus collective byte
	// meters, mirroring the paper's operator breakdown figures.
	HybridStepBreakdown = hybrid.StepBreakdown
	// EmbeddingDType selects the storage precision of embedding-table
	// lookup rows (ModelConfig.TableDType, SparseFeature.DType): fp32,
	// or bf16/fp16 replicas over fp32 master weights with split-SGD
	// row re-quantization on every optimizer update.
	EmbeddingDType = tensor.DType
	// WireFormat selects the on-the-wire encoding of the hybrid
	// trainer's collective payloads (HybridConfig.WireA2A,
	// HybridConfig.WireAllReduce): fp32 passthrough, fp16/bf16 halves,
	// or int8 per-64-element-chunk scales at 1.0625 bytes/element.
	WireFormat = collective.WireFormat
	// CollectiveLink models the wire between ranks (bandwidth + latency);
	// the zero value is infinitely fast.
	CollectiveLink = collective.Link
	// CollectiveStats are the cumulative per-operation collective meters.
	CollectiveStats = collective.Totals
	// BatchSource supplies training batches to either trainer — the seam
	// where the in-memory generator and the on-disk ingestion pipeline
	// swap under the run loop (TrainFrom, RunElastic).
	BatchSource = core.BatchSource
	// SourceFactory opens a BatchSource positioned after a number of
	// batches; the run loop reopens the stream through it on every resume
	// and recovery. ReplaySource builds the positionable synthetic one.
	SourceFactory = core.SourceFactory
	// Stepper is the seam both trainers present to the run loop: step one
	// batch, report the step count and the smallest steppable batch, save
	// and restore a checkpoint. Trainer and HybridTrainer satisfy it.
	Stepper = train.Stepper
	// GeneratorSource is the in-memory BatchSource over a Generator
	// (Generator.NewSource).
	GeneratorSource = data.GeneratorSource
	// IngestDataset is an opened sharded on-disk dataset (manifest +
	// shard handles).
	IngestDataset = ingest.Dataset
	// IngestManifest is a dataset's schema and shard index.
	IngestManifest = ingest.Manifest
	// IngestOptions tunes the staged reader pipeline (readers, prefetch
	// depth, shuffle window, RecD dedup, bandwidth emulation).
	IngestOptions = ingest.Options
	// IngestPipeline is the staged reader pipeline: parallel shard
	// decode → bounded shuffle → batch assembly with within-batch dedup
	// into a recycled prefetch ring. It implements BatchSource.
	IngestPipeline = ingest.Pipeline
	// IngestMeters is the pipeline's per-stage meter snapshot (read
	// MB/s, dedup ratio, ring occupancy, trainer starvation).
	IngestMeters = ingest.MeterSnapshot
	// IngestShardWriter materializes datasets shard by shard.
	IngestShardWriter = ingest.ShardWriter
	// DedupIndex is the RecD-style within-batch unique-row view of a
	// sparse bag (MiniBatch.AttachDedup builds one per feature).
	DedupIndex = embedding.DedupIndex
	// Tracer is the fixed-capacity, slab-backed span recorder behind
	// per-step phase tracing. Recording is lock- and allocation-free;
	// each shard (trainer, rank, ingest stage) is single-writer.
	Tracer = telemetry.Tracer
	// Registry is the unified lock-free counter/gauge registry every
	// subsystem meters into ("hybrid/…", "collective/…", "ingest/…").
	Registry = telemetry.Registry
	// Snapshot is a point-in-time copy of a Registry's metrics.
	Snapshot = telemetry.Snapshot
	// TraceSnapshot is a point-in-time copy of a Tracer's recorded
	// spans, exportable via WriteChromeTrace or TraceSnapshot.Timeline.
	TraceSnapshot = telemetry.TraceSnapshot
	// TraceSpan is one recorded phase interval on one shard.
	TraceSpan = telemetry.Span
	// TracePhase identifies a step/ingest phase (emb_lookup, all_to_all,
	// dense_fwd, …) in the telemetry taxonomy.
	TracePhase = telemetry.Phase
	// AttributionReport decomposes a trace into per-shard step windows,
	// per-phase exposed time, background/overlapped work, and the
	// critical-path wall time; Render joins it against an analytic
	// prediction such as PredictedPhases.
	AttributionReport = telemetry.Attribution
	// CheckpointStore is a durable checkpoint directory: sharded,
	// content-hashed full and incremental (touched-rows-only) checkpoints
	// under Merkle-sealed manifests, written atomically and verified on
	// restore.
	CheckpointStore = ckpt.Store
	// CheckpointManifest is one checkpoint's metadata: step, kind
	// (full/delta), base chain pins, model fingerprint, per-shard hashes,
	// and the Merkle root over them.
	CheckpointManifest = ckpt.Manifest
	// CheckpointSaveInfo summarizes one checkpoint save (kind, files,
	// bytes, delta rows, the caller's stall). The write runs in the
	// background, so the Merkle root comes from the store's Latest.
	CheckpointSaveInfo = ckpt.SaveInfo
	// RestoreInfo summarizes one restore (chain length applied, verified
	// bytes moved, wall time).
	RestoreInfo = ckpt.RestoreInfo
	// FaultSchedule arms collective faults — rank kills, delays, failed
	// ops — at exact (rank, step) points (ParseFaultSchedule builds one
	// from "kill:1@120,delay:0@40+2ms" syntax). Fired entries stay fired,
	// so a schedule shared across a recovery rebuild does not re-strike.
	FaultSchedule = collective.FaultSchedule
	// RankError is the error every rank's Step returns when a collective
	// fault (or real rank death) aborts a synchronous step.
	RankError = collective.RankError
	// ElasticConfig drives RunElastic: trainer + checkpoint cadence +
	// replayable batch-stream factory + fault schedule.
	ElasticConfig = hybrid.ElasticConfig
	// ElasticResult reports a run of the run loop: the loss curve, the
	// step it started from, recovery count, recovery wall time, and
	// verified bytes restored.
	ElasticResult = train.Result
	// Histogram is the fixed-size, zero-allocation log-bucketed latency
	// histogram behind every phase's quantiles: lock-free concurrent
	// Record, mergeable across rank shards, ≤3.125% relative quantile
	// error by construction.
	Histogram = telemetry.Histogram
	// LatencyQuantiles is one histogram's rendered summary
	// (count/mean/p50/p95/p99/p999/max).
	LatencyQuantiles = telemetry.Quantiles
	// ImbalanceReport is the per-rank straggler analysis: step wall vs
	// rendezvous wait vs self time, the max/mean imbalance index, and
	// slowest-rank attribution per phase.
	ImbalanceReport = telemetry.ImbalanceReport
	// TableSkew summarizes one embedding table's hot-row access skew
	// (top-1%/top-10% lookup shares and the per-row count histogram).
	TableSkew = telemetry.TableSkew
	// DoctorInput bundles what the performance doctor fuses: trace
	// snapshot, metrics snapshot, analytic phase prediction, and skew.
	DoctorInput = telemetry.DoctorInput
	// DoctorReport is the classified run: a boundedness verdict
	// (compute-/all-to-all-/all-reduce-/reader-/checkpoint-/straggler-
	// bound), the bucket decomposition, and ranked findings.
	DoctorReport = telemetry.DoctorReport
	// Timeseries is the fixed-capacity per-step sample ring behind the
	// flight recorder: zero-allocation Append, annotated marks, JSON
	// export (/timeseries), and an ASCII sparkline Dashboard
	// (cmd/dlrmtrain -telemetry.watch).
	Timeseries = telemetry.Timeseries
	// StepSample is one step of the training time-series (loss,
	// examples, step/comm/wait/starvation ns, per-phase ns, straggler
	// index).
	StepSample = telemetry.StepSample
	// TimeseriesMark is an annotated point event on the time-series
	// (fault, rebuild, restore, detector finding).
	TimeseriesMark = telemetry.SeriesMark
	// AnomalyKind classifies an online detector finding (loss_spike,
	// loss_nan, throughput_dip, ingest_starvation, straggler,
	// rank_fault).
	AnomalyKind = telemetry.AnomalyKind
	// AnomalyFinding is one structured detector hit: kind, offending
	// step, severity, observed value vs baseline, detail line.
	AnomalyFinding = telemetry.AnomalyFinding
	// FlightRecorder couples the time-series ring with the online
	// anomaly detectors and, when armed with a directory, atomically
	// dumps a blackbox-<step>/ bundle (trace window, metrics snapshot,
	// series tail, doctor verdict) on every debounced finding.
	FlightRecorder = telemetry.FlightRecorder
	// FlightRecorderConfig configures OpenFlightRecorder (bundle dir,
	// debounce, bundle cap, straggler threshold, tracer/registry to
	// derive phase and meter deltas from).
	FlightRecorderConfig = telemetry.FlightRecorderConfig
	// BundleManifest is the parsed bundle.json of a black-box bundle
	// (schema "recsim-blackbox/1": trigger finding + member files).
	BundleManifest = telemetry.BundleManifest
	// TelemetryServeOption customizes ServeTelemetry (WithTimeseries).
	TelemetryServeOption = telemetry.ServeOption
)

// Online anomaly detector kinds (flight-recorder findings).
const (
	AnomalyLossSpike        = telemetry.AnomalyLossSpike
	AnomalyLossNaN          = telemetry.AnomalyLossNaN
	AnomalyThroughputDip    = telemetry.AnomalyThroughputDip
	AnomalyIngestStarvation = telemetry.AnomalyIngestStarvation
	AnomalyStraggler        = telemetry.AnomalyStraggler
	AnomalyRankFault        = telemetry.AnomalyRankFault
)

// Placement strategies (Fig 8, plus the tiered-memory extension).
const (
	PlaceGPUMemory    = placement.GPUMemory
	PlaceSystemMemory = placement.SystemMemory
	PlaceRemoteCPU    = placement.RemoteCPU
	PlaceHybrid       = placement.Hybrid
	PlaceTiered       = placement.Tiered
)

// Memory hierarchy levels.
const (
	TierHBM        = hw.TierHBM
	TierLocalDRAM  = hw.TierLocalDRAM
	TierRemoteDRAM = hw.TierRemoteDRAM
	TierNVM        = hw.TierNVM
)

// Interaction kinds.
const (
	InteractionConcat = core.Concat
	InteractionDot    = core.DotProduct
)

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

// Platforms returns the Table I hardware catalog.
func Platforms() []Platform { return hw.Platforms() }

// PlatformByName resolves "DualSocketCPU", "BigBasin", or "Zion".
func PlatformByName(name string) (Platform, error) { return hw.ByName(name) }

// UniformSparse builds n identical sparse features, the §V test-suite
// convention (re-exported from the core config helpers).
func UniformSparse(n, hashSize int, meanPooled float64) []SparseFeature {
	return core.UniformSparse(n, hashSize, meanPooled)
}

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

// EstimateCPUCluster estimates the production distributed CPU baseline
// (Fig 4) with the given topology.
func EstimateCPUCluster(cfg ModelConfig, batch, trainers, sparsePS, densePS int) (Breakdown, error) {
	return perfmodel.Estimate(perfmodel.Scenario{
		Cfg: cfg, Platform: hw.DualSocketCPU(), Batch: batch,
		NumTrainers: trainers, NumSparsePS: sparsePS, NumDensePS: densePS,
	})
}

// BestPlacement picks the fastest feasible placement on a platform among
// the paper's three production strategies and the tiered-memory
// extension (ties break toward the paper's flat strategies).
func BestPlacement(cfg ModelConfig, platformName string, batch int) (PlacementPlan, Breakdown, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return PlacementPlan{}, Breakdown{}, err
	}
	return perfmodel.BestPlacement(cfg, p, batch, perfmodel.DefaultCalibration())
}

// MemoryTiers returns a platform's embedding memory hierarchy ordered
// fastest to slowest; remotePS sizes the remote-DRAM tier (0 for the
// default fleet).
func MemoryTiers(platformName string, remotePS int) ([]MemoryTier, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return nil, err
	}
	return p.MemoryTiers(remotePS), nil
}

// PlaceTieredWith builds a Tiered placement plan with explicit options —
// use FitPlacement(cfg, platform, PlaceTiered, 0) for the defaults. The
// returned plan's Tiered field carries the per-tier assignment and the
// hot-row cache estimate.
func PlaceTieredWith(cfg ModelConfig, platformName string, opts TieredOptions) (PlacementPlan, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return PlacementPlan{}, err
	}
	return placement.FitTiered(cfg, p, opts)
}

// NewCachePolicy builds a row-cache eviction policy ("lru", "lfu",
// "clock") with the given row capacity.
func NewCachePolicy(name string, capacityRows int) (CachePolicy, error) {
	return memtier.NewPolicy(name, capacityRows)
}

// NewHybridTrainer builds the synchronous hybrid-parallel trainer: hc.Ranks
// in-process workers, each owning a table-wise embedding shard and a full
// MLP replica. Close it when done.
func NewHybridTrainer(cfg ModelConfig, hc HybridConfig) (*HybridTrainer, error) {
	return hybrid.New(cfg, hc)
}

// OpenCheckpointStore opens (creating if needed) a durable checkpoint
// directory. Both trainers save into it via SaveCheckpoint (full or
// incremental, chosen by the store's compaction policy) and resume via
// RestoreCheckpoint; every restore re-verifies shard hashes and the
// manifest Merkle root.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) { return ckpt.OpenStore(dir) }

// ParseFaultSchedule parses a collective fault schedule, e.g.
// "kill:1@120,delay:0@40+2ms,fail:2@30" — kill rank 1 at step 120,
// delay rank 0 by 2ms at step 40, fail rank 2's next op at step 30. Arm
// it via HybridTrainer.SetFaults or ElasticConfig.Faults.
func ParseFaultSchedule(s string) (*FaultSchedule, error) { return collective.ParseFaultSchedule(s) }

// AsRankError extracts the failing rank from an error returned by a
// faulted hybrid step.
func AsRankError(err error) (*RankError, bool) { return collective.AsRankError(err) }

// TrainFrom drives either trainer from a BatchSource for up to n steps
// (every step recycles its batch) and returns the mean training loss over
// the steps taken and their count. A finite source ending early is not an
// error; a batch smaller than t.Ranks() is skipped, not stepped.
func TrainFrom(t Stepper, src BatchSource, n int) (meanLoss float64, steps int, err error) {
	return train.Span(t, src, n)
}

// ReplaySource returns the positionable stream of NewGenerator(cfg,
// seed) in batches of batchSize: each call regenerates the stream and
// discards the first skip batches, so a resumed or rolled-back trainer
// sees the batches an uninterrupted run would have seen.
func ReplaySource(cfg ModelConfig, seed int64, batchSize int) SourceFactory {
	return data.ReplaySource(cfg, seed, data.DefaultOptions(), batchSize)
}

// RunElastic trains with durable checkpoints and fault-tolerant
// recovery: a rank fault rolls training back to the last checkpoint,
// rebuilds the world, and replays the deterministic stream — the
// recovered loss curve is bit-identical to an uninterrupted run. A store
// that already holds a checkpoint is resumed from it.
func RunElastic(ec ElasticConfig) (*ElasticResult, error) { return hybrid.RunElastic(ec) }

// RestoreHybridTrainer builds a hybrid trainer and loads the latest
// checkpoint in store — the resume path for cold starts and the rebuild
// path after a fault (the new world may use a different rank count;
// shards are keyed by table, so rejoin re-shards deterministically).
func RestoreHybridTrainer(cfg ModelConfig, hc HybridConfig, store *CheckpointStore, fs *FaultSchedule) (*HybridTrainer, RestoreInfo, error) {
	return hybrid.Restore(cfg, hc, store, fs)
}

// HybridLink derives the collective link model from a platform's
// rank-to-rank interconnect (NVLink when present, otherwise the NIC).
func HybridLink(platformName string) (CollectiveLink, error) {
	p, err := hw.ByName(platformName)
	if err != nil {
		return CollectiveLink{}, err
	}
	return collective.LinkFor(p), nil
}

// HybridAllToAllBytes returns the analytic cross-rank bytes the hybrid
// trainer's pooled-embedding all-to-all moves per iteration (both
// directions, summed over ranks) — the number its byte meters report.
func HybridAllToAllBytes(cfg ModelConfig, batch, ranks int) float64 {
	return perfmodel.HybridAllToAllBytes(cfg, batch, ranks)
}

// HybridAllReduceBytes returns the analytic cross-rank bytes of the dense
// ring all-reduce per iteration, summed over ranks.
func HybridAllReduceBytes(cfg ModelConfig, ranks int) float64 {
	return perfmodel.HybridAllReduceBytes(cfg, ranks)
}

// HybridAllToAllBytesWire is HybridAllToAllBytes with the wire width as
// a parameter — pass WireFormat.BytesPerElem() to predict the compressed
// volume the byte meters report under that format.
func HybridAllToAllBytesWire(cfg ModelConfig, batch, ranks int, bytesPerElem float64) float64 {
	return perfmodel.HybridAllToAllBytesWire(cfg, batch, ranks, bytesPerElem)
}

// HybridAllReduceBytesWire is HybridAllReduceBytes with the wire width
// as a parameter.
func HybridAllReduceBytesWire(cfg ModelConfig, ranks int, bytesPerElem float64) float64 {
	return perfmodel.HybridAllReduceBytesWire(cfg, ranks, bytesPerElem)
}

// Embedding storage dtypes (ModelConfig.TableDType, SparseFeature.DType)
// and collective wire formats (HybridConfig.WireA2A / WireAllReduce).
const (
	DTypeFP32 = tensor.FP32
	DTypeBF16 = tensor.BF16
	DTypeFP16 = tensor.FP16

	WireFP32 = collective.WireFP32
	WireFP16 = collective.WireFP16
	WireBF16 = collective.WireBF16
	WireINT8 = collective.WireINT8
)

// ParseDType parses "fp32"/"bf16"/"fp16" (plus common aliases like
// "float32", "bfloat16", "half"; "" means fp32).
func ParseDType(s string) (EmbeddingDType, error) { return tensor.ParseDType(s) }

// ParseWireFormat parses "fp32"/"fp16"/"bf16"/"int8" ("" means fp32).
func ParseWireFormat(s string) (WireFormat, error) { return collective.ParseWireFormat(s) }

// NewShardWriter creates a dataset directory and returns a writer that
// materializes batches into the sharded ingest record format.
func NewShardWriter(dir string, cfg ModelConfig) (*IngestShardWriter, error) {
	return ingest.NewShardWriter(dir, cfg)
}

// OpenDataset opens a sharded on-disk dataset written by NewShardWriter
// (or Generator.WriteShards).
func OpenDataset(dir string) (*IngestDataset, error) { return ingest.OpenDataset(dir) }

// OpenIngestPipeline starts the staged reader pipeline over a dataset;
// the result feeds either trainer via TrainFrom. Close it when done.
func OpenIngestPipeline(ds *IngestDataset, cfg ModelConfig, opt IngestOptions) (*IngestPipeline, error) {
	return ingest.Open(ds, cfg, opt)
}

// IngestBytesPerExample returns the expected on-disk record size of one
// example of cfg — the analytic side of the reader-bandwidth roofline
// metered by IngestMeters.
func IngestBytesPerExample(cfg ModelConfig) float64 {
	return perfmodel.IngestBytesPerExample(cfg)
}

// NewTracer builds a span tracer with the given number of single-writer
// shards, each holding a ring of capacity spans (capacity <= 0 gets a
// default). Wire it to core.Trainer via SetTrace, to the hybrid trainer
// via HybridConfig.Trace, and to the ingestion pipeline via
// IngestOptions.Trace; their ShardCount helpers size the shard layout.
func NewTracer(shards, capacity int) *Tracer { return telemetry.NewTracer(shards, capacity) }

// NewTelemetryRegistry builds an empty metrics registry. Passing it via
// HybridConfig.Registry / IngestOptions.Registry makes every subsystem
// meter land in one snapshot-able, HTTP-exportable place.
func NewTelemetryRegistry() *Registry { return telemetry.NewRegistry() }

// WriteChromeTrace serializes a trace snapshot as Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto.
func WriteChromeTrace(w io.Writer, s TraceSnapshot) error { return telemetry.WriteChromeTrace(w, s) }

// Attribute decomposes a trace snapshot into the per-phase attribution
// report (observed step phases, background/overlapped work, critical
// path). Render the result against PredictedPhases for the
// observed-vs-predicted table of the telemetry_attribution experiment.
func Attribute(s TraceSnapshot) AttributionReport { return telemetry.Attribute(s) }

// PredictedPhases projects an analytic Breakdown (EstimateGPU,
// EstimateCPUCluster) onto the telemetry phase taxonomy in seconds per
// step — the predicted column of AttributionReport.Render.
func PredictedPhases(bd Breakdown) map[TracePhase]float64 { return perfmodel.PredictedPhases(bd) }

// ServeTelemetry exposes the registry on addr: /metrics (JSON snapshot),
// /healthz, /timeseries (pass WithTimeseries), /debug/vars (expvar),
// and /debug/pprof. It returns the live server (its Addr resolves ":0"
// to the bound port); shut it down when done.
func ServeTelemetry(addr string, r *Registry, opts ...TelemetryServeOption) (*http.Server, error) {
	return telemetry.Serve(addr, r, opts...)
}

// WithTimeseries registers a live /timeseries JSON endpoint on
// ServeTelemetry, backed by the given sample ring (typically
// FlightRecorder.Timeseries()).
func WithTimeseries(ts *Timeseries) TelemetryServeOption { return telemetry.WithTimeseries(ts) }

// NewTimeseries returns a per-step sample ring holding the last
// capacity steps (a ~1k-step window if capacity <= 0). All memory is
// allocated up front; recording never grows it.
func NewTimeseries(capacity int) *Timeseries { return telemetry.NewTimeseries(capacity) }

// OpenFlightRecorder builds the training flight recorder: a per-step
// time-series ring fed by Trainer.SetRecorder or
// HybridConfig.Recorder, online anomaly
// detectors (EWMA loss z-score, NaN guard, throughput dip, ingest
// starvation, straggler index), and — when cfg.Dir is set —
// atomic blackbox-<step>/ bundle dumps on every debounced finding.
func OpenFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	return telemetry.OpenFlightRecorder(cfg)
}

// RegisterPhaseHists publishes a tracer's per-phase latency histograms
// into a registry, so /metrics and Snapshot.Render carry
// "phase/<name>/{p50,p95,p99,p999}_ns" alongside the counters.
func RegisterPhaseHists(r *Registry, t *Tracer) { telemetry.RegisterPhaseHists(r, t) }

// Imbalance joins a trace snapshot's per-rank step windows with the
// collective rendezvous-wait meters into the straggler report: a
// synchronous straggler waits the least at every barrier, so
// step-wall minus wait recovers each rank's true self time.
func Imbalance(snap TraceSnapshot, ms Snapshot) ImbalanceReport { return telemetry.Imbalance(snap, ms) }

// SkewFromRowCounts summarizes per-row embedding access counts (any
// order) into a TableSkew — feed it trace.Collector row frequencies or
// any raw count slice.
func SkewFromRowCounts(table string, counts []uint64) TableSkew {
	return telemetry.SkewFromRowCounts(table, counts)
}

// Diagnose runs the performance doctor: it decomposes observed step
// time into compute / all-to-all / all-reduce / reader / checkpoint
// buckets (fusing span attribution with the Link-priced collective
// meters), overlays the straggler analysis, and returns a verdict with
// ranked findings. See cmd/dlrmtrain -telemetry.doctor.
func Diagnose(in DoctorInput) DoctorReport { return telemetry.Diagnose(in) }

// Experiments lists the regenerable paper artifacts.
func Experiments() []string { return experiments.IDs() }

// RunExperiment regenerates one table or figure.
func RunExperiment(id string, opt ExperimentOptions) (ExperimentResult, error) {
	return experiments.Run(id, opt)
}

// Version identifies the reproduction release.
const Version = "7.0.0"

// Describe returns a one-line summary of a model config.
func Describe(cfg ModelConfig) string {
	return fmt.Sprintf("%s: %d dense, %d sparse, %s embeddings, %.0f lookups/example",
		cfg.Name, cfg.DenseFeatures, cfg.NumSparse(),
		core.HumanBytes(cfg.EmbeddingBytes()), cfg.LookupsPerExample())
}
