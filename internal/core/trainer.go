package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/telemetry"
)

// OptimizerKind selects the optimizer family of a trainer.
type OptimizerKind = optim.Kind

const (
	OptSGD     = optim.KindSGD
	OptAdagrad = optim.KindAdagrad // the production default
)

// TrainerConfig holds the hyper-parameters of a single-node trainer.
type TrainerConfig struct {
	Optimizer   OptimizerKind
	LR          float64 // dense and embedding learning rate
	WarmupIters int     // linear LR warmup length
}

// Trainer couples a model with its optimizers and runs mini-batch steps.
type Trainer struct {
	Model *Model
	cfg   TrainerConfig

	dense   optim.Dense
	sparse  *SparseStep // shared with Model: owns every table
	sched   optim.WarmupSchedule
	iter    int
	gradBuf []float32 // reusable logit-gradient buffer

	trace      *telemetry.Tracer
	traceShard int
	rec        *telemetry.FlightRecorder
}

// NewTrainer builds a trainer for the model.
func NewTrainer(m *Model, cfg TrainerConfig) *Trainer {
	if cfg.LR <= 0 {
		panic("core: trainer LR must be positive")
	}
	if cfg.Optimizer == "" {
		cfg.Optimizer = OptAdagrad
	}
	t := &Trainer{Model: m, cfg: cfg, sched: optim.WarmupSchedule{Base: cfg.LR, WarmupIters: cfg.WarmupIters}}
	_, owned := m.Cfg.ShardTables(1) // the single-process trainer is the one-owner case
	dense, sparse, err := optim.New(cfg.Optimizer, m.DenseParams(), float32(cfg.LR), m.Tables, owned[0], float32(cfg.LR))
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	t.dense = dense
	t.sparse = NewSparseStep(m.Tables, owned[0], sparse, float32(cfg.LR))
	m.sparse = t.sparse
	return t
}

// Iter returns the number of steps taken.
func (t *Trainer) Iter() int { return t.iter }

// Ranks is the smallest batch Step accepts: one example.
func (t *Trainer) Ranks() int { return 1 }

// StepBatch is Step behind the run loop's trainer seam (train.Stepper).
// A single-process step cannot fail, so the error is always nil.
func (t *Trainer) StepBatch(b *MiniBatch) (float64, error) { return t.Step(b), nil }

// SetTrace points the trainer (and its model) at a tracer shard. Step
// then records a PhaseStep envelope plus the interior phase spans —
// lookup, dense fwd/bwd, loss, sparse scatter, optimizer, sparse apply —
// all from the trainer goroutine, which must be the shard's only writer.
// A nil tracer turns tracing off.
func (t *Trainer) SetTrace(tr *telemetry.Tracer, shard int) {
	t.trace, t.traceShard = tr, shard
	t.Model.Trace, t.Model.TraceShard = tr, shard
}

// SetRecorder attaches a flight recorder: Step then feeds it one
// StepSample per step (loss, batch size, wall time) from the trainer
// goroutine. Nil detaches. Steady-state sampling stays allocation-free.
func (t *Trainer) SetRecorder(fr *telemetry.FlightRecorder) { t.rec = fr }

// Step runs one forward/backward/update over the batch and returns the
// batch's training loss. At steady state (fixed batch size) it performs
// zero heap allocations; every scratch buffer is owned by the trainer or
// the model and reused across steps.
func (t *Trainer) Step(b *MiniBatch) float64 {
	var t0 int64
	if t.rec != nil {
		t0 = telemetry.Now()
	}
	stepTok := t.trace.Begin(telemetry.PhaseStep)
	logits := t.Model.Forward(b) // records emb_lookup + dense_fwd spans
	if cap(t.gradBuf) < len(logits) {
		t.gradBuf = make([]float32, len(logits))
	}
	grad := t.gradBuf[:len(logits)]
	tok := t.trace.Begin(telemetry.PhaseLoss)
	loss := nn.BCEWithLogits(logits, b.Labels, grad)

	// ZeroGrad is gradient-buffer preparation: charge it to the backward
	// pass (Backward itself records dense_bwd + sparse_scatter).
	tok = t.trace.Next(t.traceShard, tok, telemetry.PhaseDenseBwd)
	t.Model.ZeroGrad()
	t.trace.End(t.traceShard, tok)
	t.Model.Backward(grad)

	lr := t.sched.At(t.iter)
	scale := float32(lr / t.cfg.LR)
	tok = t.trace.Begin(telemetry.PhaseOptimizer)
	t.dense.SetLR(float32(lr))
	t.dense.Step()
	tok = t.trace.Next(t.traceShard, tok, telemetry.PhaseSparseApply)
	t.sparse.Apply(b, scale)
	t.trace.End(t.traceShard, tok)
	t.iter++
	t.trace.End(t.traceShard, stepTok)
	if t.rec != nil {
		now := telemetry.Now()
		t.rec.ObserveStep(telemetry.StepSample{
			Step:        int64(t.iter - 1),
			ClockNS:     now,
			Loss:        loss,
			Examples:    int64(b.Batch()),
			StepNS:      now - t0,
			SlowestRank: -1,
		})
	}
	return loss
}

// EvalResult aggregates model-quality metrics over an evaluation set.
type EvalResult struct {
	LogLoss  float64
	NE       float64 // normalized entropy (§VI-C); lower is better
	Accuracy float64
	Examples int
}

// Evaluate scores the model on the given batches without training.
func Evaluate(m *Model, batches []*MiniBatch) EvalResult {
	var preds, labels []float32
	for _, b := range batches {
		preds = append(preds, m.Predict(b)...)
		labels = append(labels, b.Labels...)
	}
	return EvalResult{
		LogLoss:  nn.LogLoss(preds, labels),
		NE:       nn.NormalizedEntropy(preds, labels),
		Accuracy: nn.Accuracy(preds, labels, 0.5),
		Examples: len(labels),
	}
}

// modelSnapshot is the gob wire format for model weights.
type modelSnapshot struct {
	Dense  [][]float32
	Tables [][]float32
}

// SaveWeights serializes the model's parameters.
func (m *Model) SaveWeights(w io.Writer) error {
	snap := modelSnapshot{}
	for _, p := range m.DenseParams() {
		snap.Dense = append(snap.Dense, p.Value)
	}
	for _, t := range m.Tables {
		snap.Tables = append(snap.Tables, t.Weights.Data)
	}
	return gob.NewEncoder(w).Encode(snap)
}

// LoadWeights restores parameters saved by SaveWeights into a model built
// from the same Config.
func (m *Model) LoadWeights(r io.Reader) error {
	var snap modelSnapshot
	if err := gob.NewDecoder(r).Decode(&snap); err != nil {
		return fmt.Errorf("core: decoding weights: %w", err)
	}
	dense := m.DenseParams()
	if len(snap.Dense) != len(dense) || len(snap.Tables) != len(m.Tables) {
		return fmt.Errorf("core: snapshot shape mismatch (%d/%d dense, %d/%d tables)",
			len(snap.Dense), len(dense), len(snap.Tables), len(m.Tables))
	}
	for i, p := range dense {
		if len(snap.Dense[i]) != len(p.Value) {
			return fmt.Errorf("core: dense param %d length %d != %d", i, len(snap.Dense[i]), len(p.Value))
		}
		copy(p.Value, snap.Dense[i])
	}
	for i, t := range m.Tables {
		if len(snap.Tables[i]) != len(t.Weights.Data) {
			return fmt.Errorf("core: table %d length %d != %d", i, len(snap.Tables[i]), len(t.Weights.Data))
		}
		copy(t.Weights.Data, snap.Tables[i])
		t.SyncAll()
	}
	return nil
}

// TotalLookups sums the access counters across all tables.
func (m *Model) TotalLookups() uint64 {
	var n uint64
	for _, t := range m.Tables {
		n += t.Lookups()
	}
	return n
}

// EmbeddingBytes returns the actual embedding footprint of this model.
func (m *Model) EmbeddingBytes() int64 {
	var b int64
	for _, t := range m.Tables {
		b += t.Bytes()
	}
	return b
}
