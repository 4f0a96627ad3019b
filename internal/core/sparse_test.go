package core

import (
	"fmt"
	"math"
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
					outGot, outWant, dOut := tensor.New(batch, dim), tensor.New(batch, dim), tensor.New(batch, dim)
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
						for ti, tab := range want {
							step.Lookup(b, ti, outGot)
							tab.BagForwardInto(b.Bags[ti], outWant, sc)
							requireSameBits(t, "pooled output", outGot.Data, outWant.Data)

							tensor.UniformInit(dOut, 1, rng)
							step.Apply(ti, step.Scatter(b, ti, dOut), scale)

							refGrad[ti].Reset()
							tab.BagBackward(b.Bags[ti], dOut, refGrad[ti])
							refOpt[ti].SetLR(lr * scale)
							refOpt[ti].Apply(refGrad[ti])
							refDirty[ti].Mark(refGrad[ti].RowIDs())
						}
					}

					// Reading every row through a one-row-per-example bag decodes
					// the lookup replica, quantized or not.
					all := make([][]int32, rows)
					for i := range all {
						all[i] = []int32{int32(i)}
					}
					probe := embedding.NewBag(all)
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
