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
// hand-composed chain of the public kernels (BagForwardInto → BagBackward
// → Apply → Mark) over the same batches, for every optimizer × table
// dtype × dedup combination. The kernels are the bit-for-bit reference:
// pooled outputs, fp32 masters, quantized replicas, optimizer
// accumulators and dirty sets must all match exactly.
func TestSparseStepMatchesPublicKernels(t *testing.T) {
	const tables, rows, dim, batch, steps = 2, 61, 8, 16, 6
	const lr = float32(0.1)
	for _, kind := range []OptimizerKind{OptSGD, OptAdagrad} {
		for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
			for _, dedup := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%v/dedup=%v", kind, dt, dedup), func(t *testing.T) {
					build := func() []*embedding.Table {
						rng := xrand.New(3)
						tabs := make([]*embedding.Table, tables)
						for i := range tabs {
							tabs[i] = embedding.NewTableTyped("t", rows, dim, dt, rng)
						}
						return tabs
					}
					owned := []int{0, 1}

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
					for i, tab := range want {
						if kind == OptSGD {
							refOpt[i] = &optim.SparseSGD{LR: lr, Table: tab}
						} else {
							refOpt[i] = optim.NewRowWiseAdagrad(tab, lr)
						}
						refGrad[i] = embedding.NewSparseGrad(dim)
						refDirty[i] = ckpt.NewDirty(rows)
					}
					sc := embedding.NewScratch()

					rng := xrand.New(9)
					outWant := tensor.New(batch, dim)
					outGot, dOut := make([]*tensor.Matrix, tables), make([]*tensor.Matrix, tables)
					for ti := range outGot {
						outGot[ti], dOut[ti] = tensor.New(batch, dim), tensor.New(batch, dim)
					}
					for s := 0; s < steps; s++ {
						b := &MiniBatch{Dense: tensor.New(batch, 1)}
						for range want {
							per := make([][]int32, batch)
							for i := range per {
								for k := 1 + int(rng.Uint64()%5); k > 0; k-- {
									per[i] = append(per[i], int32(rng.Uint64()%(rows/2))) // heavy repeats
								}
							}
							b.Bags = append(b.Bags, embedding.NewBag(per))
						}
						if dedup {
							b.AttachDedup()
						}
						scale := float32(s+1) / steps // a warmup ramp, so SetLR is exercised
						step.Lookup(b, outGot)
						for ti := range dOut {
							tensor.UniformInit(dOut[ti], 1, rng)
						}
						step.Scatter(b, dOut)
						step.Apply(b, scale)
						for ti, tab := range want {
							tab.BagForwardInto(b.Bags[ti], outWant, sc)
							requireSameBits(t, "pooled output", outGot[ti].Data, outWant.Data)

							refGrad[ti].Reset()
							tab.BagBackward(b.Bags[ti], dOut[ti], refGrad[ti])
							refOpt[ti].SetLR(lr * scale)
							refOpt[ti].Apply(refGrad[ti])
							refDirty[ti].Mark(refGrad[ti].RowIDs())
						}
					}

					probe := allRowsBag(rows)
					repGot, repWant := tensor.New(rows, dim), tensor.New(rows, dim)
					for ti := range want {
						requireSameBits(t, "master weights", got[ti].Weights.Data, want[ti].Weights.Data)
						got[ti].BagForwardInto(probe, repGot, sc)
						want[ti].BagForwardInto(probe, repWant, sc)
						requireSameBits(t, "lookup replica", repGot.Data, repWant.Data)
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
				})
			}
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
