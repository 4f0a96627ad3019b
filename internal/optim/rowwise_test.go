package optim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// rowWiseAdagradOracle is RowWiseAdagrad.Apply as it was before it went
// eight rows at a time: per row, its sum of squares, then its update.
func rowWiseAdagradOracle(r *RowWiseAdagrad, sg *embedding.SparseGrad) {
	dim := float32(r.Table.Dim)
	sg.ForEach(func(ix int32, g []float32) {
		var sq float32
		for _, v := range g {
			sq += v * v
		}
		r.accum[ix] += sq / dim
		scale := -r.LR / (float32(math.Sqrt(float64(r.accum[ix]))) + r.Eps)
		tensor.Axpy(scale, g, r.Table.Weights.Row(int(ix)))
		r.Table.SyncRow(int(ix))
	})
}

// TestRowWiseAdagradMatchesScalar holds Apply to the oracle bit for bit,
// vector kernels on and off: at every width 1-130, for 0-41 touched rows
// (so every remainder after the blocks of eight), over two steps whose
// gradients mix in ±0, subnormals, ±Inf and NaN. The fp32 masters, the
// row accumulators and the bf16 lookup replica must match, NaN matching
// any NaN.
func TestRowWiseAdagradMatchesScalar(t *testing.T) {
	const hashSize, steps, lr = 48, 2, float32(0.05)
	hostile := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
		1e30, -1e-30,
	}
	rng := xrand.New(25)
	pool := make([]float32, 1<<14)
	for i := range pool {
		if rng.Intn(16) == 0 {
			pool[i] = hostile[rng.Intn(len(hostile))]
		} else {
			pool[i] = float32(rng.NormMS(0, 1))
		}
	}
	for dim := 1; dim <= 130; dim++ {
		base := embedding.NewTableTyped("t", hashSize, dim, tensor.BF16, rng)
		for n := 0; n <= 41; n++ {
			// Each step touches n distinct rows in a shuffled order. Add
			// accumulates onto +0, so the gradients, -0 among them, are
			// written into the slab directly.
			grads := make([]*embedding.SparseGrad, steps)
			for s := range grads {
				grads[s] = embedding.NewSparseGrad(dim)
				for _, ix := range perm(rng, hashSize)[:n] {
					grads[s].Add(int32(ix), nil)
				}
				slab := grads[s].Slab()
				copy(slab, pool[rng.Intn(len(pool)-len(slab)):])
			}
			run := func(vector bool, apply func(*RowWiseAdagrad, *embedding.SparseGrad)) *RowWiseAdagrad {
				defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
				opt := NewRowWiseAdagrad(base.Clone(), lr)
				for _, sg := range grads {
					apply(opt, sg)
				}
				return opt
			}
			want := run(false, rowWiseAdagradOracle)
			wantReplica := replica(want.Table)
			for _, vector := range []bool{false, true} {
				got := run(vector, (*RowWiseAdagrad).Apply)
				name := fmt.Sprintf("dim %d, %d rows, vector=%v", dim, n, vector)
				requireSameFloats(t, name+": master weights", got.Table.Weights.Data, want.Table.Weights.Data)
				requireSameFloats(t, name+": accumulator", got.Accum(), want.Accum())
				requireSameFloats(t, name+": bf16 replica", replica(got.Table), wantReplica)
			}
		}
	}
}

// replica reads a table's lookup replica back, decoded, one row per
// example of an all-rows bag.
func replica(tab *embedding.Table) []float32 {
	all := make([][]int32, tab.HashSize)
	for i := range all {
		all[i] = []int32{int32(i)}
	}
	out := tensor.New(tab.HashSize, tab.Dim)
	tab.BagForwardInto(embedding.NewBag(all), out, embedding.NewScratch())
	return out.Data
}

// requireSameFloats fails at the first element whose bits differ, unless
// both are NaN.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}

// perm returns a random permutation of [0, n) drawn from rng, the way
// math/rand's Perm draws it.
func perm(rng *xrand.RNG, n int) []int {
	m := make([]int, n)
	for i := range m {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}
