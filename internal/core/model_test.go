package core

import (
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// makeBatch builds a small deterministic batch for the test config.
func makeBatch(cfg Config, b int, seed int64) *MiniBatch { return makeBatchIDs(cfg, b, 4, seed) }

// makeBatchIDs is makeBatch with 1..maxIDs ids per example and feature.
func makeBatchIDs(cfg Config, b, maxIDs int, seed int64) *MiniBatch {
	rng := xrand.New(seed)
	dense := tensor.New(b, cfg.DenseFeatures)
	tensor.NormalInit(dense, 1, rng)
	bags := make([]embedding.Bag, cfg.NumSparse())
	for f := range bags {
		per := make([][]int32, b)
		for i := range per {
			n := 1 + rng.Intn(maxIDs)
			idxs := make([]int32, n)
			for k := range idxs {
				idxs[k] = int32(rng.Intn(cfg.Sparse[f].HashSize))
			}
			per[i] = idxs
		}
		bags[f] = embedding.NewBag(per)
	}
	labels := make([]float32, b)
	for i := range labels {
		if rng.Float64() < 0.4 {
			labels[i] = 1
		}
	}
	return &MiniBatch{Dense: dense, Bags: bags, Labels: labels}
}

func TestForwardShapesAndDeterminism(t *testing.T) {
	for _, inter := range []Interaction{Concat, DotProduct} {
		cfg := testConfig()
		cfg.Interaction = inter
		m := NewModel(cfg, xrand.New(1))
		b := makeBatch(cfg, 6, 2)
		if err := b.Validate(&cfg); err != nil {
			t.Fatalf("batch invalid: %v", err)
		}
		// Forward reuses its logit buffer, so snapshot the first pass
		// before running the second.
		l1 := append([]float32(nil), m.Forward(b)...)
		l2 := m.Forward(b)
		if len(l1) != 6 {
			t.Fatalf("%v: %d logits", inter, len(l1))
		}
		for i := range l1 {
			if l1[i] != l2[i] {
				t.Fatalf("%v: forward not deterministic", inter)
			}
		}
	}
}

func TestBatchValidateRejectsMismatches(t *testing.T) {
	cfg := testConfig()
	b := makeBatch(cfg, 4, 3)
	bad := *b
	bad.Labels = bad.Labels[:2]
	if bad.Validate(&cfg) == nil {
		t.Error("short labels accepted")
	}
	bad2 := *b
	bad2.Bags = bad2.Bags[:2]
	if bad2.Validate(&cfg) == nil {
		t.Error("missing bags accepted")
	}
}

// TestModelGradCheckDot validates end-to-end gradients (MLPs + embeddings
// + dot interaction) against finite differences.
func TestModelGradCheckDot(t *testing.T) {
	cfg := Config{
		Name:          "gradcheck",
		DenseFeatures: 5,
		Sparse:        UniformSparse(3, 11, 2),
		EmbeddingDim:  4,
		BottomMLP:     []int{6},
		TopMLP:        []int{7},
		Interaction:   DotProduct,
	}
	m := NewModel(cfg, xrand.New(4))
	b := makeBatch(cfg, 3, 5)

	lossOf := func() float64 {
		logits := m.Forward(b)
		return nn.BCEWithLogits(logits, b.Labels, nil)
	}

	logits := m.Forward(b)
	grad := make([]float32, len(logits))
	nn.BCEWithLogits(logits, b.Labels, grad)
	m.ZeroGrad()
	sparse := backward(m, b, grad)

	// Check MLP params statistically (ReLU kinks cause rare outliers).
	total, bad := 0, 0
	for _, p := range m.DenseParams() {
		numer := nn.NumericalGradient(lossOf, p.Value, 1e-2)
		for i := range p.Value {
			total++
			diff := math.Abs(float64(numer[i] - p.Grad[i]))
			scale := math.Max(1e-3, math.Abs(float64(numer[i]))+math.Abs(float64(p.Grad[i])))
			if diff/scale > 0.1 {
				bad++
			}
		}
	}
	if float64(bad) > 0.03*float64(total) {
		t.Errorf("MLP grads: %d/%d entries disagree", bad, total)
	}

	// Check a touched embedding row per table (one row keeps it fast).
	for ti, sg := range sparse {
		ids := sg.RowIDs()
		if len(ids) == 0 {
			continue
		}
		ix := ids[0]
		var g []float32
		sg.ForEach(func(id int32, row []float32) {
			if id == ix {
				g = row
			}
		})
		w := m.Tables[ti].Weights.Row(int(ix))
		for c := 0; c < 2 && c < len(w); c++ {
			orig := w[c]
			const eps = 1e-2
			w[c] = orig + eps
			fp := lossOf()
			w[c] = orig - eps
			fm := lossOf()
			w[c] = orig
			numeric := (fp - fm) / (2 * eps)
			if math.Abs(numeric-float64(g[c])) > math.Max(2e-3, 0.1*math.Abs(numeric)) {
				t.Errorf("table %d row %d col %d: numeric %v vs analytic %v",
					ti, ix, c, numeric, g[c])
			}
		}
	}
}

func TestModelGradCheckConcat(t *testing.T) {
	cfg := Config{
		Name:          "gradcheck-concat",
		DenseFeatures: 4,
		Sparse:        UniformSparse(2, 9, 2),
		EmbeddingDim:  3,
		BottomMLP:     []int{5},
		TopMLP:        []int{6},
		Interaction:   Concat,
	}
	m := NewModel(cfg, xrand.New(6))
	b := makeBatch(cfg, 2, 7)
	lossOf := func() float64 {
		logits := m.Forward(b)
		return nn.BCEWithLogits(logits, b.Labels, nil)
	}
	logits := m.Forward(b)
	grad := make([]float32, len(logits))
	nn.BCEWithLogits(logits, b.Labels, grad)
	m.ZeroGrad()
	sparse := backward(m, b, grad)

	for ti, sg := range sparse {
		ids := sg.RowIDs()
		if len(ids) == 0 {
			continue
		}
		ix := ids[0]
		var g []float32
		sg.ForEach(func(id int32, row []float32) {
			if id == ix {
				g = row
			}
		})
		w := m.Tables[ti].Weights.Row(int(ix))
		orig := w[0]
		const eps = 1e-2
		w[0] = orig + eps
		fp := lossOf()
		w[0] = orig - eps
		fm := lossOf()
		w[0] = orig
		numeric := (fp - fm) / (2 * eps)
		if math.Abs(numeric-float64(g[0])) > math.Max(2e-3, 0.1*math.Abs(numeric)) {
			t.Errorf("table %d row %d: numeric %v vs analytic %v", ti, ix, numeric, g[0])
		}
	}
}

// TestShareWeightsModel checks the evaluation view hybrid.EvalModel
// builds: an AssembleModel over ShareWeights MLPs and the same tables
// aliases every parameter but keeps its own activations.
func TestShareWeightsModel(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, xrand.New(8))
	w := AssembleModel(cfg, m.Bottom.ShareWeights(), m.Top.ShareWeights(), m.Tables)
	// Same underlying weights.
	if &w.Tables[0].Weights.Data[0] != &m.Tables[0].Weights.Data[0] {
		t.Error("tables must be shared")
	}
	w.DenseParams()[0].Value[0] = 123
	if m.DenseParams()[0].Value[0] != 123 {
		t.Error("MLP weights must be shared")
	}
	// Forward on the view must not clobber the original's caches in a
	// way that breaks the original's backward (separate activations).
	b := makeBatch(cfg, 4, 9)
	m.Forward(b)
	w.Forward(b)
	// original backward still works against its own cache
	grads := backward(m, b, make([]float32, 4))
	if len(grads) != cfg.NumSparse() {
		t.Error("backward after view forward failed")
	}
}

func TestCloneModelIndependent(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, xrand.New(10))
	c := m.Clone()
	c.Tables[0].Weights.Data[0] += 5
	if m.Tables[0].Weights.Data[0] == c.Tables[0].Weights.Data[0] {
		t.Error("Clone must copy tables")
	}
}

func TestTrainerLearnsSyntheticTask(t *testing.T) {
	// A small model must beat the base rate on a planted-teacher task.
	cfg := Config{
		Name:          "learn",
		DenseFeatures: 8,
		Sparse:        UniformSparse(3, 50, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   DotProduct,
	}
	m := NewModel(cfg, xrand.New(15))
	tr := NewTrainer(m, TrainerConfig{Optimizer: OptAdagrad, LR: 0.05})

	// Teacher: fixed random linear rule on dense features + one table.
	rng := xrand.New(16)
	teacherW := make([]float32, cfg.DenseFeatures)
	for i := range teacherW {
		teacherW[i] = float32(rng.NormMS(0, 1))
	}
	gen := func(b int) *MiniBatch {
		mb := makeBatch(cfg, b, int64(rng.Uint64()))
		for i := 0; i < b; i++ {
			z := tensor.Dot(teacherW, mb.Dense.Row(i)) * 1.5
			if rng.Float32() < tensor.Sigmoid(z) {
				mb.Labels[i] = 1
			} else {
				mb.Labels[i] = 0
			}
		}
		return mb
	}

	var first, last float64
	iters := 300
	for i := 0; i < iters; i++ {
		loss := tr.Step(gen(32))
		if i < 20 {
			first += loss
		}
		if i >= iters-20 {
			last += loss
		}
	}
	if last >= first*0.95 {
		t.Errorf("training loss did not improve: first %v, last %v", first/20, last/20)
	}
	if tr.Iter() != iters {
		t.Errorf("Iter = %d, want %d", tr.Iter(), iters)
	}
}

// TestTracedStepSplitsSparsePhases: a traced Trainer.Step records the
// gradient scatter and the sparse optimizer's apply as separate spans,
// one of each per step.
func TestTracedStepSplitsSparsePhases(t *testing.T) {
	const steps = 5
	cfg := testConfig()
	tr := NewTrainer(NewModel(cfg, xrand.New(18)), TrainerConfig{LR: 0.05})
	trace := telemetry.NewTracer(1, 256)
	tr.SetTrace(trace, 0)
	for i := 0; i < steps; i++ {
		tr.Step(makeBatch(cfg, 16, int64(19+i)))
	}
	snap := trace.Snapshot()
	for _, p := range []telemetry.Phase{telemetry.PhaseSparseScatter, telemetry.PhaseSparseApply} {
		if h := snap.PhaseHist(p); h.Count() != steps {
			t.Errorf("%v: %d spans over %d steps, want one per step", p, h.Count(), steps)
		}
	}
}

// TestStepRecordFeedsSpansAndSample: Trainer.Step's spans and its
// flight-recorder samples come from one record per step, so the spans
// tile each step exactly and the samples hold the same nanoseconds, in
// total and per phase.
func TestStepRecordFeedsSpansAndSample(t *testing.T) {
	const steps = 6
	cfg := testConfig()
	tr := NewTrainer(NewModel(cfg, xrand.New(18)), TrainerConfig{LR: 0.05})
	trace := telemetry.NewTracer(1, 256)
	fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{Tracer: trace})
	if err != nil {
		t.Fatal(err)
	}
	tr.SetTrace(trace, 0)
	tr.SetRecorder(fr)
	for i := 0; i < steps; i++ {
		tr.Step(makeBatch(cfg, 16, int64(19+i)))
	}
	a := telemetry.Attribute(trace.Snapshot())
	if len(a.Shards) != 1 || a.Shards[0].Steps != steps || a.Shards[0].Coverage() != 1 {
		t.Fatalf("spans do not tile %d steps: %+v", steps, a.Shards)
	}
	var stepNS int64
	var phases [telemetry.NumPhases]int64
	for _, s := range fr.Timeseries().Tail(0) {
		stepNS += s.StepNS
		for p, ns := range s.PhaseNS {
			phases[p] += ns
		}
	}
	if sa := a.Shards[0]; stepNS != sa.StepNS || phases != sa.Phases {
		t.Fatalf("samples: %d ns %v; spans: %d ns %v", stepNS, phases, sa.StepNS, sa.Phases)
	}
}

func TestTrainerPanics(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, xrand.New(17))
	mustPanic(t, func() { NewTrainer(m, TrainerConfig{LR: 0}) })
	mustPanic(t, func() { NewTrainer(m, TrainerConfig{LR: 0.1, Optimizer: "nope"}) })
}

func TestBackwardBeforeForwardPanics(t *testing.T) {
	m := NewModel(testConfig(), xrand.New(18))
	mustPanic(t, func() { m.BackwardPooled([]float32{0}) })
}

// backward runs the model's backward pass as the trainer does: the
// dense stacks and the interaction (BackwardPooled), then the sparse
// step's scatter into one SparseGrad per table.
func backward(m *Model, b *MiniBatch, dLogits []float32) []*embedding.SparseGrad {
	return m.sparse.Scatter(b, m.BackwardPooled(dLogits))
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}

func TestEvaluateMetrics(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, xrand.New(19))
	batches := []*MiniBatch{makeBatch(cfg, 32, 20), makeBatch(cfg, 32, 21)}
	res := Evaluate(m, batches)
	if res.Examples != 64 {
		t.Errorf("Examples = %d", res.Examples)
	}
	if res.LogLoss <= 0 || math.IsNaN(res.LogLoss) {
		t.Errorf("LogLoss = %v", res.LogLoss)
	}
	if res.Accuracy < 0 || res.Accuracy > 1 {
		t.Errorf("Accuracy = %v", res.Accuracy)
	}
}

func TestTotalLookupsAccumulates(t *testing.T) {
	cfg := testConfig()
	m := NewModel(cfg, xrand.New(22))
	b := makeBatch(cfg, 8, 23)
	// The counter meters physical row reads: each distinct row of a bag
	// once, however often the bag repeats it.
	var want, total uint64
	for _, bag := range b.Bags {
		want += uint64(len(distinctRows(bag)))
		total += uint64(bag.TotalLookups())
	}
	if want == total {
		t.Fatal("the batch repeats no row, so the test cannot tell reads from ids")
	}
	for pass := uint64(1); pass <= 2; pass++ {
		m.Forward(b)
		if got := m.TotalLookups(); got != pass*want {
			t.Errorf("after %d forwards TotalLookups = %d, want %d", pass, got, pass*want)
		}
	}
}

// distinctRows is the set of row ids bag reads.
func distinctRows(bag embedding.Bag) map[int32]bool {
	rows := make(map[int32]bool)
	for _, ix := range bag.Indices {
		rows[ix] = true
	}
	return rows
}
