package core

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/embedding"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// TestSparseStepMatchesPublicKernels steps a SparseStep and a
// hand-composed chain of the reference kernels (BagForwardInto →
// BagBackward → Apply → Mark) over the same batches, for every optimizer ×
// table dtype × source of the dedup view (dedup=true: the batch's
// producer built it; dedup=false: the step's Lookup builds its own) × one
// owned table or several. As a generator does, one MiniBatch is rewritten
// in place for every step, and between every other two steps the step
// looks up another batch, as evaluation does through a trainer's model. The
// kernels are the bit-for-bit reference: pooled outputs (evaluation's
// too), gradient values and RowIDs order, fp32 masters, quantized
// replicas, optimizer accumulators and dirty sets must all match exactly.
func TestSparseStepMatchesPublicKernels(t *testing.T) {
	for _, kind := range []OptimizerKind{OptSGD, OptAdagrad} {
		for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/dedup=%v", kind, dt, dedup), func(t *testing.T) {
					for _, owned := range [][]int{{1}, {0, 1, 2}} {
						t.Run(fmt.Sprintf("owned=%d", len(owned)), func(t *testing.T) {
							checkSparseStepAgainstKernels(t, kind, dt, dedup, owned)
						})
					}
				})
			}
		}
	}
}

func checkSparseStepAgainstKernels(t *testing.T, kind OptimizerKind, dt tensor.DType, dedup bool, owned []int) {
	const tables, rows, dim, batch, evalBatch, steps = 3, 61, 8, 16, 11, 6
	const lr = float32(0.1)
	build := func() []*embedding.Table {
		rng := xrand.New(3)
		tabs := make([]*embedding.Table, tables)
		for i := range tabs {
			tabs[i] = embedding.NewTableTyped("t", rows, dim, dt, rng)
		}
		return tabs
	}
	got := build()
	_, opts, err := optim.New(kind, nil, 0, got, owned, lr)
	if err != nil {
		t.Fatal(err)
	}
	step := NewSparseStep(got, owned, opts, lr)

	// The reference composes concrete optimizers by hand.
	want := build()
	refOpt := make([]optim.Sparse, tables)
	refGrad := make([]*embedding.SparseGrad, tables)
	refDirty := make([]*ckpt.Dirty, tables)
	for _, ti := range owned {
		if kind == OptSGD {
			refOpt[ti] = &optim.SparseSGD{LR: lr, Table: want[ti]}
		} else {
			refOpt[ti] = optim.NewRowWiseAdagrad(want[ti], lr)
		}
		refGrad[ti] = embedding.NewSparseGrad(dim)
		refDirty[ti] = ckpt.NewDirty(rows)
	}
	sc := embedding.NewScratch()

	rng := xrand.New(9)
	// fill rewrites b's bags in place, keeping their storage: 1..5 ids
	// per example over half the rows (heavy repeats). Every batch of one
	// size has the same offsets, so a view of another batch of that size
	// has the right length and reads the wrong rows.
	fill := func(b *MiniBatch) {
		for ti := range b.Bags {
			bag := &b.Bags[ti]
			bag.Indices, bag.Offsets = bag.Indices[:0], bag.Offsets[:1]
			for i := 0; i < b.Batch(); i++ {
				for k := 1 + i%5; k > 0; k-- {
					bag.Indices = append(bag.Indices, int32(rng.Intn(rows/2)))
				}
				bag.Offsets = append(bag.Offsets, int32(len(bag.Indices)))
			}
		}
		b.DetachDedup()
	}
	newBatch := func(n int) *MiniBatch {
		b := &MiniBatch{Dense: tensor.New(n, 1), Bags: make([]embedding.Bag, tables)}
		for ti := range b.Bags {
			b.Bags[ti].Offsets = []int32{0}
		}
		return b
	}
	mats := func(n int) []*tensor.Matrix {
		ms := make([]*tensor.Matrix, tables)
		for ti := range ms {
			ms[ti] = tensor.New(n, dim)
		}
		return ms
	}
	outGot, dOut, evalOut := mats(batch), mats(batch), mats(evalBatch)
	outWant, evalWant := tensor.New(batch, dim), tensor.New(evalBatch, dim)
	b, eval := newBatch(batch), newBatch(evalBatch)
	for s := 0; s < steps; s++ {
		if s%2 == 1 {
			fill(eval)
			step.Lookup(eval, evalOut)
			for _, ti := range owned {
				want[ti].BagForwardInto(eval.Bags[ti], evalWant, sc)
				requireSameBits(t, "evaluation output", evalOut[ti].Data, evalWant.Data)
			}
		}
		fill(b)
		if dedup {
			b.AttachDedup()
		}
		scale := float32(s+1) / float32(steps) // a warmup ramp, so SetLR is exercised
		step.Lookup(b, outGot)
		for ti := range dOut {
			tensor.UniformInit(dOut[ti], 1, rng)
		}
		grads := step.Scatter(b, dOut)
		step.Apply(b, scale)
		for _, ti := range owned {
			want[ti].BagForwardInto(b.Bags[ti], outWant, sc)
			requireSameBits(t, "pooled output", outGot[ti].Data, outWant.Data)

			refGrad[ti].Reset()
			want[ti].BagBackward(b.Bags[ti], dOut[ti], refGrad[ti])
			if g, w := grads[ti].RowIDs(), refGrad[ti].RowIDs(); fmt.Sprint(g) != fmt.Sprint(w) {
				t.Fatalf("step %d table %d gradient rows %v, reference %v", s, ti, g, w)
			}
			requireSameBits(t, "gradient", grads[ti].Slab(), refGrad[ti].Slab())
			refOpt[ti].SetLR(lr * scale)
			refOpt[ti].Apply(refGrad[ti])
			refDirty[ti].Mark(refGrad[ti].RowIDs())
		}
		for ti := range want {
			requireSameBits(t, "master weights", got[ti].Weights.Data, want[ti].Weights.Data)
		}
	}

	probe := allRowsBag(rows)
	repGot, repWant := tensor.New(rows, dim), tensor.New(rows, dim)
	for ti := range want {
		got[ti].BagForwardInto(probe, repGot, sc)
		want[ti].BagForwardInto(probe, repWant, sc)
		requireSameBits(t, "lookup replica", repGot.Data, repWant.Data)
	}
	for _, ti := range owned {
		if acc := step.opt[ti].Accum(); (acc == nil) != (kind == OptSGD) {
			t.Fatalf("table %d accumulator nil=%v under %s", ti, acc == nil, kind)
		}
		requireSameBits(t, "accumulator", step.opt[ti].Accum(), refOpt[ti].Accum())
		var dGot, dWant []int32
		step.Dirty()[ti].ForEach(func(r int32) { dGot = append(dGot, r) })
		refDirty[ti].ForEach(func(r int32) { dWant = append(dWant, r) })
		if fmt.Sprint(dGot) != fmt.Sprint(dWant) || len(dGot) == 0 {
			t.Fatalf("table %d dirty rows %v, reference %v", ti, dGot, dWant)
		}
	}
}

// allRowsBag reads every row of a table once, one row per example: pooled
// through it, a table's lookup replica comes out decoded, quantized or not.
func allRowsBag(rows int) embedding.Bag {
	all := make([][]int32, rows)
	for i := range all {
		all[i] = []int32{int32(i)}
	}
	return embedding.NewBag(all)
}

func requireSameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// trained is everything a training run leaves behind.
type trained struct {
	losses []float64
	state  [][]float32 // dense, dense accumulators, table masters, lookup replicas, row accumulators
	dirty  [][]int32   // touched rows by table
}

// fanOutConfig is a model whose 3 tables each cost a 128-example batch
// of fanOutBatches ~36 ids × 128 × dim 32 = 150k, over few enough rows
// that most are hit repeatedly.
func fanOutConfig(dt tensor.DType) Config {
	cfg := testConfig()
	cfg.Sparse = UniformSparse(3, 1500, 36)
	cfg.EmbeddingDim = 32
	cfg.TableDType = dt
	return cfg
}

// fanOutBatches returns 50 batches for fanOutConfig; with mixedDedup
// every other one carries dedup views, so one run takes both kernels.
func fanOutBatches(mixedDedup bool) []*MiniBatch {
	bs := make([]*MiniBatch, 50)
	for i := range bs {
		bs[i] = makeBatchIDs(fanOutConfig(tensor.FP32), 128, 72, int64(100+i))
		if mixedDedup && i%2 == 1 {
			bs[i].AttachDedup()
		}
	}
	return bs
}

// trainFanOut trains fanOutConfig over the batches at the given
// GOMAXPROCS and checks on every batch that the sparse phases take the
// path the caller expects: handed to the pool, or the inline loop.
func trainFanOut(t *testing.T, procs int, dt tensor.DType, batches []*MiniBatch, wantFanOut bool) trained {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	cfg := fanOutConfig(dt)
	m := NewModel(cfg, xrand.New(1))
	tr := NewTrainer(m, TrainerConfig{LR: 0.05, WarmupIters: 10})
	var out trained
	for step, b := range batches {
		s := tr.sparse
		if got := tensor.RangeFansOut(len(s.owned), s.tableWork(s.owned, b)); got != wantFanOut {
			t.Fatalf("GOMAXPROCS %d step %d: fans out = %v, want %v", procs, step, got, wantFanOut)
		}
		out.losses = append(out.losses, tr.Step(b))
	}

	st := tr.CkptState()
	out.state = append(append(out.state, st.Dense...), st.DenseAccum...)
	rows := cfg.Sparse[0].HashSize
	probe, sc := allRowsBag(rows), embedding.NewScratch()
	for ti, tab := range m.Tables {
		replica := tensor.New(rows, cfg.EmbeddingDim)
		tab.BagForwardInto(probe, replica, sc)
		out.state = append(out.state, tab.Weights.Data, replica.Data, st.SparseAccum[ti])
		var touched []int32
		tr.DirtyRows()[ti].ForEach(func(r int32) { touched = append(touched, r) })
		out.dirty = append(out.dirty, touched)
	}
	return out
}

// TestTableParallelBitIdentical pins the promise that handing tables to
// the pool changes where the sparse step runs and nothing else: against
// the inline loop over plain batches (GOMAXPROCS 1), training through
// the hand-off at 2 and 4 Ps, with dedup views attached to every other
// batch, leaves the same loss at every step and the same bits in every
// dense weight, table row, lookup replica, optimizer accumulator and
// dirty set, for fp32 and bf16 tables. Under -race it is also the check
// that whatever a phase writes is private to a table.
func TestTableParallelBitIdentical(t *testing.T) {
	plain, mixed := fanOutBatches(false), fanOutBatches(true)
	for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
		want := trainFanOut(t, 1, dt, plain, false)
		if len(want.dirty[0]) == 0 || want.losses[49] >= want.losses[0] {
			t.Fatalf("%v: reference run did not train (%d dirty rows, loss %v -> %v)",
				dt, len(want.dirty[0]), want.losses[0], want.losses[49])
		}
		for _, procs := range []int{1, 2, 4} {
			got := trainFanOut(t, procs, dt, mixed, procs > 1)
			name := fmt.Sprintf("%v GOMAXPROCS %d", dt, procs)
			for i := range want.losses {
				if got.losses[i] != want.losses[i] {
					t.Fatalf("%s: step %d loss %v, inline %v", name, i, got.losses[i], want.losses[i])
				}
			}
			for i := range want.state {
				requireSameBits(t, fmt.Sprintf("%s: state %d", name, i), got.state[i], want.state[i])
			}
			if fmt.Sprint(got.dirty) != fmt.Sprint(want.dirty) {
				t.Fatalf("%s: dirty sets differ from the inline run", name)
			}
		}
	}
}

// TestOnlySparseHeavyFansOut evaluates the hand-off gate on the per-step
// shape of each bench/e2e workload: the tables a step walks (the hybrids
// walk their rank's half, over the global batch), the batch, the ids per
// example the generator draws (rounded up; its truncated power law lands
// under the nominal mean, 26-28 of sparse_heavy's 40) and the dim. Only
// sparse_heavy may change behaviour with this path; the other five must
// keep running the inline loop.
func TestOnlySparseHeavyFansOut(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, w := range []struct {
		name                    string
		tables, batch, ids, dim int
		fansOut                 bool
	}{
		{"dense_heavy", 4, 64, 3, 32, false},
		{"sparse_heavy", 8, 128, 26, 64, true},
		{"hybrid_fp32", 4, 256, 6, 32, false},
		{"hybrid_int8", 4, 256, 6, 32, false},
		{"ingest_stream", 16, 256, 16, 2, false},
		{"ckpt_interleaved", 8, 128, 6, 32, false},
	} {
		tabs := make([]*embedding.Table, w.tables)
		b := &MiniBatch{Bags: make([]embedding.Bag, w.tables)}
		for ti := range tabs {
			tabs[ti] = embedding.NewTable("t", 1, w.dim, xrand.New(1))
			b.Bags[ti] = embedding.Bag{Indices: make([]int32, w.batch*w.ids)}
		}
		s := newSparseView(tabs)
		if got := tensor.RangeFansOut(len(s.walk), s.tableWork(s.walk, b)); got != w.fansOut {
			t.Errorf("%s: fans out = %v, want %v (%d per table)", w.name, got, w.fansOut, s.tableWork(s.walk, b))
		}
	}
}

// TestSparseStepPrefetchBitIdentical runs the sparse step with the vector
// kernels on, which also turns on the row prefetches in the fp32 lookup
// and the row-wise AdaGrad apply, against the Go kernels alone, which
// issue none. Over 20 steps of a skewed shape (one large table and two
// small ones, Zipf ids, an odd dim so rows start mid-line, enough unique
// rows that Apply prefetches many blocks ahead), the pooled outputs of
// every step and the final masters, accumulators and lookup replicas
// must match bit for bit, for fp32 and bf16 tables, with and without
// dedup.
func TestSparseStepPrefetchBitIdentical(t *testing.T) {
	const dim, batch, steps = 13, 64, 20
	const lr = float32(0.1)
	rows := []int{70000, 300, 90}
	ids := []int{24, 6, 3}
	type run struct{ pooled, state [][]float32 }
	train := func(dt tensor.DType, dedup, vector bool) run {
		defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
		rng := xrand.New(3)
		tabs := make([]*embedding.Table, len(rows))
		owned := make([]int, len(rows))
		for i := range tabs {
			tabs[i] = embedding.NewTableTyped("t", rows[i], dim, dt, rng)
			owned[i] = i
		}
		_, opts, err := optim.New(OptAdagrad, nil, 0, tabs, owned, lr)
		if err != nil {
			t.Fatal(err)
		}
		step := NewSparseStep(tabs, owned, opts, lr)
		outs, dOuts := make([]*tensor.Matrix, len(rows)), make([]*tensor.Matrix, len(rows))
		for ti := range outs {
			outs[ti], dOuts[ti] = tensor.New(batch, dim), tensor.New(batch, dim)
		}
		data := xrand.New(9)
		zipfs := make([]*xrand.Zipf, len(rows))
		for ti := range zipfs {
			zipfs[ti] = xrand.NewZipf(1.1, rows[ti])
		}
		var r run
		for s := 0; s < steps; s++ {
			b := &MiniBatch{Dense: tensor.New(batch, 1)}
			for ti := range rows {
				per := make([][]int32, batch)
				for i := range per {
					for k := 1 + data.Intn(ids[ti]); k > 0; k-- {
						per[i] = append(per[i], int32(zipfs[ti].Draw(data)-1))
					}
				}
				b.Bags = append(b.Bags, embedding.NewBag(per))
			}
			if dedup {
				b.AttachDedup()
			}
			step.Lookup(b, outs)
			for ti := range dOuts {
				r.pooled = append(r.pooled, append([]float32(nil), outs[ti].Data...))
				tensor.UniformInit(dOuts[ti], 1, data)
			}
			step.Scatter(b, dOuts)
			step.Apply(b, 1)
		}
		sc := embedding.NewScratch()
		for ti, tab := range tabs {
			replica := tensor.New(rows[ti], dim)
			tab.BagForwardInto(allRowsBag(rows[ti]), replica, sc)
			r.state = append(r.state, tab.Weights.Data, opts[ti].Accum(), replica.Data)
		}
		return r
	}
	for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
		for _, dedup := range []bool{false, true} {
			name := fmt.Sprintf("%v/dedup=%v", dt, dedup)
			want, got := train(dt, dedup, false), train(dt, dedup, true)
			for i := range want.pooled {
				requireSameBits(t, fmt.Sprintf("%s: pooled output %d", name, i), got.pooled[i], want.pooled[i])
			}
			for i := range want.state {
				requireSameBits(t, fmt.Sprintf("%s: state %d", name, i), got.state[i], want.state[i])
			}
		}
	}
}
