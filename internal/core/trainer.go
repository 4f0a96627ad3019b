package core

import (
	"fmt"

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

	clock      telemetry.StepRecord // the step's phase boundaries, read once each
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

// SetTrace points the trainer at a tracer shard. Step then emits its
// step record there: a PhaseStep envelope tiled by the phase spans —
// lookup, dense fwd, loss, dense bwd, sparse scatter, optimizer, sparse
// apply — from the trainer goroutine, which must be the shard's only
// writer. A nil tracer turns tracing off.
func (t *Trainer) SetTrace(tr *telemetry.Tracer, shard int) {
	t.trace, t.traceShard = tr, shard
}

// SetRecorder attaches a flight recorder: Step then feeds it one
// StepSample per step (loss, batch size, wall and per-phase time off the
// same record the spans come from) from the trainer goroutine. Nil
// detaches. Steady-state sampling stays allocation-free.
func (t *Trainer) SetRecorder(fr *telemetry.FlightRecorder) { t.rec = fr }

// Step runs one forward/backward/update over the batch and returns the
// batch's training loss. It reads the clock once per phase boundary into
// the trainer's step record, from which the spans and the recorder's
// sample are derived. At steady state (fixed batch size) it performs zero
// heap allocations; every scratch buffer is owned by the trainer or the
// model and reused across steps.
func (t *Trainer) Step(b *MiniBatch) float64 {
	m, clk := t.Model, &t.clock
	clk.Start()
	pooled := m.lookup(b)
	clk.Mark(telemetry.PhaseEmbLookup)
	logits := m.ForwardPooled(b.Dense, pooled)
	clk.Mark(telemetry.PhaseDenseFwd)
	if cap(t.gradBuf) < len(logits) {
		t.gradBuf = make([]float32, len(logits))
	}
	grad := t.gradBuf[:len(logits)]
	loss := nn.BCEWithLogits(logits, b.Labels, grad)
	clk.Mark(telemetry.PhaseLoss)

	// ZeroGrad is gradient-buffer preparation: charge it to the backward
	// pass.
	m.ZeroGrad()
	dPooled := m.BackwardPooled(grad)
	clk.Mark(telemetry.PhaseDenseBwd)
	t.sparse.Scatter(b, dPooled)
	clk.Mark(telemetry.PhaseSparseScatter)

	lr := t.sched.At(t.iter)
	t.dense.SetLR(float32(lr))
	t.dense.Step()
	clk.Mark(telemetry.PhaseOptimizer)
	t.sparse.Apply(b, float32(lr/t.cfg.LR))
	clk.Mark(telemetry.PhaseSparseApply)
	t.iter++

	clk.Emit(t.trace, t.traceShard)
	if t.rec != nil {
		t.rec.ObserveStep(telemetry.StepSample{
			Step:        int64(t.iter - 1),
			ClockNS:     clk.End(),
			Loss:        loss,
			Examples:    int64(b.Batch()),
			StepNS:      clk.Wall(),
			PhaseNS:     clk.Phases(),
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

// TotalLookups sums the access counters across all tables.
func (m *Model) TotalLookups() uint64 {
	var n uint64
	for _, t := range m.Tables {
		n += t.Lookups()
	}
	return n
}
