// Package hybrid implements the paper's synchronous hybrid-parallel
// training engine (§IV-B1) as a real, in-process system: the MLP stacks
// are data-parallel (every rank holds a full replica, synchronized with a
// bucketed ring all-reduce of dense gradients) while the embedding tables
// are model-parallel (each rank owns a table-wise shard and the pooled
// rows are exchanged with all-to-all). One step is therefore
//
//	local sparse lookup over the global batch (owned tables)
//	→ all-to-all of pooled embedding rows
//	→ fused dense forward/backward on the rank's sub-batch
//	→ bucketed, overlap-capable all-reduce of dense gradients
//	→ all-to-all of pooled-embedding gradients back to the owners
//	→ local sparse scatter + optimizer update,
//
// which is exactly the synchronous scale-out loop whose all-to-all and
// all-reduce times dominate the paper's operator breakdowns. Ranks run on
// goroutines over internal/collective, so every byte the step moves is
// metered and comparable against perfmodel's analytic collective volumes.
//
// The trainer is deterministic for a fixed seed, and its sparse updates
// are bit-identical to the single-process core.Trainer on the same batch
// stream: each rank computes logit gradients with the global-batch
// normalizer, so pooled-embedding gradients — and therefore the table
// updates applied by each owner — match the single-process step exactly.
// Dense gradients differ only by the summation order of the ring, keeping
// the loss curve rank-count-invariant within float tolerance. Steady-state
// steps reuse per-rank scratch arenas and perform no per-rank heap
// allocations.
package hybrid

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// Config holds the hyper-parameters of the synchronous hybrid trainer.
type Config struct {
	// Ranks is the number of synchronous workers (default 2).
	Ranks     int
	Optimizer core.OptimizerKind
	LR        float64 // dense and embedding learning rate
	// WarmupIters is the linear LR warmup length.
	WarmupIters int
	// Overlap runs the bucketed all-reduce concurrently with the
	// sparse-gradient all-to-all and scatter. The math is identical; only
	// the exposed communication time changes.
	Overlap bool
	// Link prices the collectives (zero value: infinitely fast). Use
	// collective.LinkFor to draw it from an hw.Platform.
	Link collective.Link
	// Seed initializes the model parameters; a single-process
	// core.NewModel with the same seed starts from identical weights.
	Seed int64
	// Registry receives the step counters ("hybrid/…") and the
	// collective meters ("collective/…"). Nil gets a private registry.
	Registry *telemetry.Registry
	// Trace, when non-nil, records per-rank step spans. Rank id writes
	// onto shard TraceShard+id; with Overlap on, the all-reduce worker
	// of rank id writes its full (possibly hidden) duration onto shard
	// TraceShard+Ranks+id, so the tracer must have 2·Ranks shards from
	// TraceShard (Ranks otherwise).
	Trace      *telemetry.Tracer
	TraceShard int
	// WireA2A compresses the pooled-activation and sparse-gradient
	// all-to-alls; WireAllReduce compresses the bucketed dense-gradient
	// all-reduce. The zero value (fp32) keeps the exact historical wire
	// behavior; see collective.WireFormat for the formats.
	WireA2A       collective.WireFormat
	WireAllReduce collective.WireFormat
	// Recorder, when non-nil, receives one flight-recorder StepSample
	// per successful Step: loss, throughput, the comm breakdown, the
	// summed rendezvous wait, and the per-step straggler index (the
	// imbalance.go definition evaluated on one step). Sampling adds no
	// heap allocations to the step.
	Recorder *telemetry.FlightRecorder
}

// bucketBytes chunks the dense-gradient all-reduce into buckets, the
// granularity at which overlap can hide it.
const bucketBytes = 256 << 10

// ShardCount returns how many tracer shards a trainer with this config
// records onto (after defaults).
func (c Config) ShardCount() int {
	n := c.Ranks
	if n == 0 {
		n = 2
	}
	if c.Overlap {
		return 2 * n
	}
	return n
}

func (c *Config) defaults() {
	if c.Ranks == 0 {
		c.Ranks = 2
	}
	if c.Optimizer == "" {
		c.Optimizer = core.OptAdagrad
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// StepBreakdown decomposes one synchronous step, mirroring the paper's
// operator breakdown figures. Durations are seconds; Compute, AllToAll,
// AllReduce, and Exposed are the maximum across ranks (the critical
// path), where Exposed is the time a rank spent blocked on communication
// that compute did not hide (with Overlap off it is simply the comm
// total; with Overlap on it shrinks by whatever the sparse path hid).
// Byte and modeled-second counters are summed across ranks for the step,
// directly comparable with perfmodel's analytic collective volumes.
type StepBreakdown struct {
	Compute   float64
	AllToAll  float64
	AllReduce float64
	Exposed   float64
	Step      float64

	AllToAllBytes  int64
	AllReduceBytes int64

	ModelAllToAllSec  float64
	ModelAllReduceSec float64
}

// Trainer is a synchronous hybrid-parallel trainer over N in-process
// ranks. Construct with New, drive with Step, release with Close.
type Trainer struct {
	Cfg core.Config
	HC  Config

	world   *collective.World
	tables  []*embedding.Table
	owner   []int   // table index -> owning rank
	ownedBy [][]int // rank -> owned table indices, ascending
	ranks   []*rank
	steps   []*core.SparseStep // each rank's sparse step, for checkpoint export

	sched  optim.WarmupSchedule
	iter   int
	batch  *core.MiniBatch
	bounds []int // rank r owns examples [bounds[r], bounds[r+1])
	wg     sync.WaitGroup
	closed bool
	failed error         // sticky first step error; Step refuses afterwards
	dirty  []*ckpt.Dirty // per-table touched rows, each the owning rank's tracker

	// registry-backed step counters (critical-path ns, accumulated per
	// Step) — the StepBreakdown return stays the per-step view, these
	// are the cumulative one.
	reg                       *telemetry.Registry
	stepsC, stepNs, computeNs *telemetry.Counter
	a2aNs, arNs, exposedNs    *telemetry.Counter

	// flight-recorder feed (Config.Recorder): per-rank rendezvous wait
	// counters resolved once so each Step costs only atomic loads.
	rec      *telemetry.FlightRecorder
	waitC    []*telemetry.Counter
	prevWait []int64
}

// New builds the trainer: a reference model seeded exactly like the
// single-process core.NewModel, full MLP replicas per rank, and embedding
// tables sharded table-wise across ranks with the §III-A2 greedy
// partitioner (balancing bytes and lookups).
func New(cfg core.Config, hc Config) (*Trainer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	hc.defaults()
	if hc.Ranks < 1 {
		return nil, fmt.Errorf("hybrid: rank count %d", hc.Ranks)
	}
	if hc.LR <= 0 {
		return nil, fmt.Errorf("hybrid: LR must be positive")
	}

	reg := hc.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	ref := core.NewModel(cfg, xrand.New(hc.Seed))
	t := &Trainer{
		Cfg:    cfg,
		HC:     hc,
		world:  collective.NewWorldWith(hc.Ranks, hc.Link, reg),
		tables: ref.Tables,
		sched:  optim.WarmupSchedule{Base: hc.LR, WarmupIters: hc.WarmupIters},
		bounds: make([]int, hc.Ranks+1),
		reg:    reg,
	}
	if t.rec = hc.Recorder; t.rec != nil {
		t.waitC = make([]*telemetry.Counter, hc.Ranks)
		t.prevWait = make([]int64, hc.Ranks)
		for id := 0; id < hc.Ranks; id++ {
			t.waitC[id] = reg.Counter(fmt.Sprintf("collective/rank%d/wait_ns", id))
		}
	}
	t.stepsC = reg.Counter("hybrid/steps")
	t.stepNs = reg.Counter("hybrid/step_ns")
	t.computeNs = reg.Counter("hybrid/compute_ns")
	t.a2aNs = reg.Counter("hybrid/a2a_ns")
	t.arNs = reg.Counter("hybrid/ar_ns")
	t.exposedNs = reg.Counter("hybrid/exposed_ns")
	reg.RegisterFunc("embedding/lookups", func() int64 {
		var n int64
		for _, tab := range t.tables {
			n += int64(tab.Lookups())
		}
		return n
	})
	if tr := hc.Trace; tr != nil {
		for id := 0; id < hc.Ranks; id++ {
			tr.NameShard(hc.TraceShard+id, fmt.Sprintf("rank %d", id))
			if hc.Overlap {
				tr.NameShard(hc.TraceShard+hc.Ranks+id, fmt.Sprintf("rank %d allreduce", id))
			}
		}
	}

	t.owner, t.ownedBy = cfg.ShardTables(hc.Ranks) // ascending ownedBy fixes the packing order
	t.dirty = make([]*ckpt.Dirty, cfg.NumSparse())

	main, side, ar := t.world.NewGroup(), t.world.NewGroup(), t.world.NewGroup()
	main.SetWire(hc.WireA2A)
	side.SetWire(hc.WireA2A)
	ar.SetWire(hc.WireAllReduce)
	overlap := hc.Overlap && hc.Ranks > 1
	if overlap {
		// The bucketed all-reduce runs on each rank's all-reduce worker
		// when overlapped: its rendezvous waits hide under compute, off the
		// rank's critical path, so they must not feed the per-rank wait
		// meters the straggler analysis subtracts from step wall time.
		// (The exposed join is still visible as the rank shard's
		// all-reduce span.) With Overlap off the same collective runs
		// inline and stays metered.
		ar.MeterWaits(false)
	}
	for id := 0; id < hc.Ranks; id++ {
		r := &rank{
			t:            t,
			id:           id,
			main:         main,
			side:         side,
			ar:           ar,
			model:        core.AssembleModel(cfg, ref.Bottom.Clone(), ref.Top.Clone(), nil),
			owned:        t.ownedBy[id],
			pooledOwned:  make([]*tensor.Matrix, cfg.NumSparse()),
			dPooledOwned: make([]*tensor.Matrix, cfg.NumSparse()),
			sendF:        make([][]float32, hc.Ranks),
			recvF:        make([][]float32, hc.Ranks),
			sendB:        make([][]float32, hc.Ranks),
			recvB:        make([][]float32, hc.Ranks),
			work:         make(chan float64, 1),
			curB:         -1,
			shard:        hc.TraceShard + id,
			bgShard:      hc.TraceShard + hc.Ranks + id,
		}
		r.params = r.model.DenseParams()
		var flatLen int
		for _, p := range r.params {
			flatLen += len(p.Value)
		}
		r.flat = make([]float32, flatLen)
		dense, sparse, err := optim.New(hc.Optimizer, r.params, float32(hc.LR), t.tables, r.owned, float32(hc.LR))
		if err != nil {
			return nil, fmt.Errorf("hybrid: %w", err)
		}
		r.dense = dense
		r.sparse = core.NewSparseStep(t.tables, r.owned, sparse, float32(hc.LR))
		for _, ti := range r.owned {
			t.dirty[ti] = r.sparse.Dirty()[ti]
		}
		t.steps = append(t.steps, r.sparse)
		t.ranks = append(t.ranks, r)
		go r.loop()
		if overlap {
			r.arWork, r.arDone = make(chan struct{}, 1), make(chan error, 1)
			go r.arLoop()
		}
	}
	return t, nil
}

// Ranks returns the number of synchronous workers.
func (t *Trainer) Ranks() int { return t.HC.Ranks }

// Iter returns the number of steps taken.
func (t *Trainer) Iter() int { return t.iter }

// Owner returns the rank owning embedding table ti.
func (t *Trainer) Owner(ti int) int { return t.owner[ti] }

// CollectiveStats returns the cumulative collective meters (bytes, calls,
// link-modeled seconds) summed across ranks.
func (t *Trainer) CollectiveStats() collective.Totals { return t.world.Snapshot() }

// Registry returns the registry holding the trainer's "hybrid/…" step
// counters and the shared "collective/…" meters.
func (t *Trainer) Registry() *telemetry.Registry { return t.reg }

// Step runs one synchronous iteration over the global batch and returns
// the batch's training loss plus the per-phase breakdown. The batch must
// carry at least one example per rank. At steady state (fixed batch size)
// the per-rank work performs zero heap allocations; every buffer lives in
// rank-owned arenas resized only when the batch size changes.
//
// A non-nil error means the world aborted mid-step — an injected
// collective fault (collective.RankError) or AbortAll. The trainer is
// then poisoned: parameter state may be torn across ranks, every later
// Step returns the same error, and recovery goes through Restore
// (rebuild + checkpoint rollback).
func (t *Trainer) Step(b *core.MiniBatch) (float64, StepBreakdown, error) {
	if t.closed {
		panic("hybrid: Step after Close")
	}
	if t.failed != nil {
		return 0, StepBreakdown{}, t.failed
	}
	B := b.Batch()
	n := t.HC.Ranks
	if B < n {
		panic(fmt.Sprintf("hybrid: batch %d smaller than %d ranks", B, n))
	}
	for r := 0; r <= n; r++ {
		t.bounds[r] = r * B / n
	}
	t.batch = b

	before := t.world.Snapshot()
	lr := t.sched.At(t.iter)
	t.world.BeginStep(t.iter) // faults scheduled for this step become due
	t.wg.Add(n)
	for _, r := range t.ranks {
		r.work <- lr
	}
	t.wg.Wait()
	for _, r := range t.ranks {
		if r.err != nil {
			t.failed = r.err
			return 0, StepBreakdown{}, t.failed
		}
	}
	after := t.world.Snapshot()
	t.iter++

	var loss float64
	var bd StepBreakdown
	for _, r := range t.ranks {
		loss += r.loss
		bd.Compute = max(bd.Compute, r.tCompute.Seconds())
		bd.AllToAll = max(bd.AllToAll, r.tA2A.Seconds())
		bd.AllReduce = max(bd.AllReduce, r.tAR.Seconds())
		bd.Exposed = max(bd.Exposed, (r.tA2A + r.arWait).Seconds())
		bd.Step = max(bd.Step, r.tStep.Seconds())
	}
	bd.AllToAllBytes = after.AllToAll.Bytes - before.AllToAll.Bytes
	bd.AllReduceBytes = after.AllReduce.Bytes - before.AllReduce.Bytes
	bd.ModelAllToAllSec = after.AllToAll.ModelSec - before.AllToAll.ModelSec
	bd.ModelAllReduceSec = after.AllReduce.ModelSec - before.AllReduce.ModelSec

	t.stepsC.Inc()
	t.stepNs.Add(int64(bd.Step * 1e9))
	t.computeNs.Add(int64(bd.Compute * 1e9))
	t.a2aNs.Add(int64(bd.AllToAll * 1e9))
	t.arNs.Add(int64(bd.AllReduce * 1e9))
	t.exposedNs.Add(int64(bd.Exposed * 1e9))
	if t.rec != nil {
		t.observeStep(loss, B, bd)
	}
	return loss, bd, nil
}

// observeStep feeds the flight recorder one sample for the step that
// just completed. The per-step straggler index mirrors Imbalance: each
// rank's self time is its step wall minus its rendezvous waits (meter
// delta, plus the exposed all-reduce join when overlap keeps the
// background collective off the meters), and the index is max self over
// mean self. Runs on the driving goroutine with all rank goroutines
// parked, so reading rank state is safe; no heap allocations.
func (t *Trainer) observeStep(loss float64, batch int, bd StepBreakdown) {
	n := t.HC.Ranks
	overlapped := t.HC.Overlap && n > 1
	var maxSelf, sumSelf float64
	var waitSum int64
	slowest := int32(-1)
	for k, r := range t.ranks {
		w := t.waitC[k].Load()
		wait := w - t.prevWait[k]
		t.prevWait[k] = w
		if overlapped {
			wait += int64(r.arWait)
		}
		waitSum += wait
		self := float64(int64(r.tStep) - wait)
		if self < 0 {
			self = 0
		}
		sumSelf += self
		if self > maxSelf {
			maxSelf, slowest = self, int32(k)
		}
	}
	idx := 0.0
	if sumSelf > 0 {
		idx = maxSelf / (sumSelf / float64(n))
	}
	t.rec.ObserveStep(telemetry.StepSample{
		Step:           int64(t.iter - 1),
		Loss:           loss,
		Examples:       int64(batch),
		StepNS:         int64(bd.Step * 1e9),
		A2ANS:          int64(bd.AllToAll * 1e9),
		ARNS:           int64(bd.AllReduce * 1e9),
		ExposedNS:      int64(bd.Exposed * 1e9),
		WaitNS:         waitSum,
		StragglerIndex: idx,
		SlowestRank:    slowest,
	})
}

// Err returns the error that poisoned the trainer, or nil while healthy.
func (t *Trainer) Err() error { return t.failed }

// StepBatch is Step behind the run loop's trainer seam (train.Stepper):
// the loss and the abort error, without the per-step breakdown (the
// "hybrid/…" registry counters keep the cumulative one).
func (t *Trainer) StepBatch(b *core.MiniBatch) (float64, error) {
	loss, _, err := t.Step(b)
	return loss, err
}

// EvalModel returns a model view over rank 0's dense replica and the full
// sharded table set, for held-out evaluation between steps. The view
// aliases the trainer's parameters; do not evaluate concurrently with
// Step.
func (t *Trainer) EvalModel() *core.Model {
	m0 := t.ranks[0].model
	return core.AssembleModel(t.Cfg, m0.Bottom.ShareWeights(), m0.Top.ShareWeights(), t.tables)
}

// Close stops the rank goroutines and their all-reduce workers. The
// trainer must not be stepped again.
func (t *Trainer) Close() {
	if t.closed {
		return
	}
	t.closed = true
	for _, r := range t.ranks {
		close(r.work)
		if r.arWork != nil {
			close(r.arWork)
		}
	}
}

// rank is one synchronous worker: a full MLP replica, the sparse step
// over the owned table shard, and every scratch arena the step needs
// (pooled matrices, pack/unpack wires, flattened gradients).
type rank struct {
	t    *Trainer
	id   int
	main *collective.Group // forward all-to-all
	side *collective.Group // backward all-to-all (overlappable)
	ar   *collective.Group // bucketed dense all-reduce

	model  *core.Model // dense replica (no tables)
	params []nn.Param
	dense  optim.Dense
	owned  []int            // owned table indices, ascending
	sparse *core.SparseStep // lookup, scatter and update of the owned tables

	// arenas, resized only when the global batch size changes
	curB         int
	pooledOwned  []*tensor.Matrix // owned ti -> B×d pooled rows (global batch)
	dPooledOwned []*tensor.Matrix // owned ti -> B×d pooled grads (global batch)
	pooledLocal  []*tensor.Matrix // every ti -> bs×d rows for this rank's examples
	sendF, recvF [][]float32      // forward pooled-row wires, per peer
	sendB, recvB [][]float32      // backward pooled-grad wires, per peer
	gradBuf      []float32
	flat         []float32 // flattened dense grads for the bucketed all-reduce
	denseView    tensor.Matrix

	work chan float64 // learning rate for the step; closed by Close
	// With Overlap, the rank's all-reduce worker (arLoop) runs one
	// bucketed all-reduce per arWork signal and answers on arDone; nil
	// otherwise. Close closes arWork.
	arWork chan struct{}
	arDone chan error

	// tracer shards: the rank goroutine writes step spans onto shard;
	// the all-reduce worker writes onto bgShard.
	shard, bgShard int

	// per-step outputs
	loss                float64
	err                 error // collective abort, if the step failed
	tCompute, tA2A, tAR time.Duration
	arWait, tStep       time.Duration
	tARBg               time.Duration // all-reduce duration when overlapped
}

func (r *rank) loop() {
	for lr := range r.work {
		r.err = r.step(lr)
		r.t.wg.Done()
	}
}

// arLoop is the rank's overlapped all-reduce worker. It lives as long
// as the trainer, so a step starts its all-reduce with a channel send
// and allocates nothing. It records the full all-reduce duration (tARBg
// and a bgShard span) before answering, so the rank reads both after
// its receive.
func (r *rank) arLoop() {
	trace := r.t.HC.Trace
	for range r.arWork {
		t0 := telemetry.Now()
		err := r.allReduceBuckets()
		t1 := telemetry.Now()
		r.tARBg = time.Duration(t1 - t0)
		trace.Emit(r.bgShard, telemetry.PhaseAllReduce, t0, t1)
		r.arDone <- err
	}
}

// ensure resizes the arenas for global batch size B and this rank's
// sub-batch. No-op (and allocation-free) while B is unchanged.
func (r *rank) ensure(B int) {
	if r.curB == B {
		return
	}
	r.curB = B
	t := r.t
	n := t.HC.Ranks
	d := t.Cfg.EmbeddingDim
	bs := t.bounds[r.id+1] - t.bounds[r.id]
	for _, ti := range r.owned {
		r.pooledOwned[ti] = tensor.New(B, d)
		r.dPooledOwned[ti] = tensor.New(B, d)
	}
	if len(r.pooledLocal) != t.Cfg.NumSparse() {
		r.pooledLocal = make([]*tensor.Matrix, t.Cfg.NumSparse())
	}
	for ti := range r.pooledLocal {
		r.pooledLocal[ti] = tensor.New(bs, d)
	}
	for j := 0; j < n; j++ {
		bsj := t.bounds[j+1] - t.bounds[j]
		r.sendF[j] = make([]float32, len(r.owned)*bsj*d)
		r.recvF[j] = make([]float32, len(t.ownedBy[j])*bs*d)
		r.sendB[j] = make([]float32, len(t.ownedBy[j])*bs*d)
		r.recvB[j] = make([]float32, len(r.owned)*bsj*d)
	}
	r.gradBuf = make([]float32, bs)
}

// step runs this rank's share of one synchronous iteration. All segment
// timing reads the telemetry clock — one monotonic base shared with the
// ingest meters and every span — and the boundary marks double as span
// edges, so the recorded phases tile the step with no gaps.
//
// A non-nil error is a collective abort (fault injection or AbortAll):
// the step bails out wherever it was, leaving rank state torn — the
// trainer surfaces the error and recovery rolls back to a checkpoint.
func (r *rank) step(lr float64) error {
	t := r.t
	b := t.batch
	n := t.HC.Ranks
	d := t.Cfg.EmbeddingDim
	B := b.Batch()
	lo, hi := t.bounds[r.id], t.bounds[r.id+1]
	bs := hi - lo
	trace := t.HC.Trace

	start := telemetry.Now()
	var a2a, ar, arWait int64
	r.ensure(B)

	// 1. Model-parallel lookups: pool the owned tables over the whole
	// global batch.
	r.sparse.Lookup(b, r.pooledOwned)

	// 2. Pack pooled rows per destination: rank j receives its examples'
	// rows for every table this rank owns (tables in ascending order).
	// The pack is lookup-output marshaling, charged to the lookup span.
	for j := 0; j < n; j++ {
		off := 0
		for _, ti := range r.owned {
			src := r.pooledOwned[ti].Data[t.bounds[j]*d : t.bounds[j+1]*d]
			copy(r.sendF[j][off:], src)
			off += len(src)
		}
	}

	// 3. Forward all-to-all of pooled embedding rows.
	ts := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseEmbLookup, start, ts)
	if err := r.main.AllToAllV(r.id, r.sendF, r.recvF); err != nil {
		return err
	}
	te := telemetry.Now()
	a2a += te - ts
	trace.Emit(r.shard, telemetry.PhaseAllToAll, ts, te)

	// 4. Unpack: pooledLocal[ti] gets this rank's bs×d slice of table ti.
	for o := 0; o < n; o++ {
		off := 0
		for _, ti := range t.ownedBy[o] {
			copy(r.pooledLocal[ti].Data, r.recvF[o][off:off+bs*d])
			off += bs * d
		}
	}

	// 5. Data-parallel dense pass on the rank's sub-batch. The logit
	// gradient uses the global-batch normalizer, so sub-batch gradients
	// carry exactly their single-process weight.
	r.denseView.Rows, r.denseView.Cols = bs, b.Dense.Cols
	r.denseView.Data = b.Dense.Data[lo*b.Dense.Cols : hi*b.Dense.Cols]
	logits := r.model.ForwardPooled(&r.denseView, r.pooledLocal)
	tf := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseDenseFwd, te, tf)
	grad := r.gradBuf[:bs]
	r.loss = nn.BCEWithLogitsNorm(logits, b.Labels[lo:hi], grad, 1.0/float64(B))
	tl := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseLoss, tf, tl)

	r.model.ZeroGrad()
	dPooled := r.model.BackwardPooled(grad)

	// 6. Pack pooled-embedding gradients back toward the table owners and
	// flatten the dense gradients for the bucketed all-reduce.
	for o := 0; o < n; o++ {
		off := 0
		for _, ti := range t.ownedBy[o] {
			copy(r.sendB[o][off:], dPooled[ti].Data)
			off += bs * d
		}
	}
	off := 0
	for _, p := range r.params {
		copy(r.flat[off:], p.Grad)
		off += len(p.Grad)
	}
	tb := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseDenseBwd, tl, tb)

	// 7. Synchronize. With Overlap the bucketed all-reduce proceeds on
	// the rank's all-reduce worker while the sparse gradients travel and
	// scatter — identical math, less exposed communication. The rank
	// shard records only the *exposed* wait; the background shard gets
	// the full all-reduce duration (the hidden part of the paper's
	// overlap win).
	overlap := r.arWork != nil
	ts = tb
	if overlap {
		r.arWork <- struct{}{}
	} else {
		arErr := r.allReduceBuckets()
		te = telemetry.Now()
		ar, arWait = te-ts, te-ts
		trace.Emit(r.shard, telemetry.PhaseAllReduce, ts, te)
		if arErr != nil {
			return arErr
		}
		ts = te
	}
	stepErr := r.side.AllToAllV(r.id, r.sendB, r.recvB)
	te = telemetry.Now()
	a2a += te - ts
	trace.Emit(r.shard, telemetry.PhaseAllToAll, ts, te)
	if stepErr == nil {
		r.scatterSparse()
	}
	tApply := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseSparseScatter, te, tApply)
	if stepErr == nil {
		r.sparse.Apply(b, float32(lr/t.HC.LR))
	}
	tOptStart := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseSparseApply, tApply, tOptStart)
	if overlap {
		// Always drain the background all-reduce; an abort unblocks it,
		// so the send happens even on a torn step.
		arErr := <-r.arDone
		te = telemetry.Now()
		arWait = te - tOptStart
		trace.Emit(r.shard, telemetry.PhaseAllReduce, tOptStart, te)
		ar = int64(r.tARBg)
		tOptStart = te
		if stepErr == nil {
			stepErr = arErr
		}
	}
	if stepErr != nil {
		return stepErr
	}

	// 8. Dense update: every rank applies the identical summed gradient,
	// so the replicas stay bit-for-bit in sync.
	off = 0
	for _, p := range r.params {
		copy(p.Grad, r.flat[off:off+len(p.Grad)])
		off += len(p.Grad)
	}
	r.dense.SetLR(float32(lr))
	r.dense.Step()

	end := telemetry.Now()
	trace.Emit(r.shard, telemetry.PhaseOptimizer, tOptStart, end)
	trace.Emit(r.shard, telemetry.PhaseStep, start, end)
	r.tStep = time.Duration(end - start)
	r.tA2A = time.Duration(a2a)
	r.tAR = time.Duration(ar)
	r.arWait = time.Duration(arWait)
	r.tCompute = r.tStep - r.tA2A - r.arWait
	return nil
}

// allReduceBuckets ring-all-reduces the flattened dense gradients in
// bucketBytes chunks.
func (r *rank) allReduceBuckets() error {
	const bucket = bucketBytes / 4
	for off := 0; off < len(r.flat); off += bucket {
		end := min(off+bucket, len(r.flat))
		if err := r.ar.AllReduce(r.id, r.flat[off:end]); err != nil {
			return err
		}
	}
	return nil
}

// scatterSparse reassembles the global-order pooled-gradient matrix for
// every owned table from the backward all-to-all and scatters it through
// the bag (exactly the single-process walk).
func (r *rank) scatterSparse() {
	t := r.t
	n := t.HC.Ranks
	d := t.Cfg.EmbeddingDim
	for j := 0; j < n; j++ {
		off := 0
		rows := (t.bounds[j+1] - t.bounds[j]) * d
		for _, ti := range r.owned {
			dst := r.dPooledOwned[ti].Data[t.bounds[j]*d : t.bounds[j+1]*d]
			copy(dst, r.recvB[j][off:off+rows])
			off += rows
		}
	}
	r.sparse.Scatter(t.batch, r.dPooledOwned)
}
