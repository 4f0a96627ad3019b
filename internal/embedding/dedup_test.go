package embedding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// skewedBag builds a bag with heavy within-batch repetition.
func skewedBag(rng *xrand.RNG, batch, hashSize, maxLen int) Bag {
	per := make([][]int32, batch)
	zipf := xrand.NewZipf(1.3, hashSize)
	for i := range per {
		n := 1 + rng.Intn(maxLen)
		for k := 0; k < n; k++ {
			per[i] = append(per[i], int32(zipf.Draw(rng)-1))
		}
	}
	return NewBag(per)
}

func TestDedupIndexInvariants(t *testing.T) {
	rng := xrand.New(1)
	bag := skewedBag(rng, 32, 50, 6)
	var d DedupIndex
	if d.Built() {
		t.Fatal("zero DedupIndex reports Built")
	}
	d.Build(bag)
	if !d.Built() {
		t.Fatal("Build did not mark the view built")
	}
	if len(d.Remap) != len(bag.Indices) {
		t.Fatalf("remap length %d != %d indices", len(d.Remap), len(bag.Indices))
	}
	for k, ix := range bag.Indices {
		if d.Unique[d.Remap[k]] != ix {
			t.Fatalf("Unique[Remap[%d]] = %d, want %d", k, d.Unique[d.Remap[k]], ix)
		}
	}
	seen := map[int32]bool{}
	for _, u := range d.Unique {
		if seen[u] {
			t.Fatalf("row %d appears twice in Unique", u)
		}
		seen[u] = true
	}
	// First-occurrence order: walking Indices, each new row must appear
	// in Unique at the next position.
	next := 0
	firstSeen := map[int32]bool{}
	for _, ix := range bag.Indices {
		if !firstSeen[ix] {
			firstSeen[ix] = true
			if d.Unique[next] != ix {
				t.Fatalf("Unique[%d] = %d, want first-occurrence %d", next, d.Unique[next], ix)
			}
			next++
		}
	}
	if next != len(d.Unique) || len(d.Remap) != len(bag.Indices) {
		t.Fatalf("%d unique rows and %d remapped ids, want %d and %d", len(d.Unique), len(d.Remap), next, len(bag.Indices))
	}
}

func TestDedupRatioAllUnique(t *testing.T) {
	per := [][]int32{{0, 1, 2}, {3, 4}, {5}}
	var d DedupIndex
	d.Build(NewBag(per))
	if len(d.Unique) != len(d.Remap) {
		t.Fatalf("all-unique bag: %d unique rows for %d ids, want one each", len(d.Unique), len(d.Remap))
	}
}

// hostileValues are the floats the dedup kernels must add exactly as the
// plain ones do: signed zeros, subnormals, infinities and a NaN.
var hostileValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// fillHostile fills x with normal draws, about one in six replaced by a
// hostile value.
func fillHostile(rng *xrand.RNG, x []float32) {
	for i := range x {
		if rng.Intn(6) == 0 {
			x[i] = hostileValues[rng.Intn(len(hostileValues))]
		} else {
			x[i] = float32(rng.NormMS(0, 1))
		}
	}
}

// firstBitDiff returns the first index where got and want differ in
// their bits, or -1, so -0 against +0 is a difference. Two NaNs match
// whatever their payloads: x86 gives a NaN sum the payload of its first
// operand, and the compiler orders the operands of an add as it likes
// (the plain bf16 pooling and AddTo2 do differ there, at dim 16).
func firstBitDiff(got, want []float32) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			return i
		}
	}
	return -1
}

// dedupCases runs f for every dim 1-17, fp32 and bf16 tables, with the
// vector kernels off and (where the CPU has them) on: the rows under 8
// columns run the kernels' inline loops, those of 8 or more their vector
// calls.
func dedupCases(t *testing.T, f func(t *testing.T, dim int, dt tensor.DType)) {
	for _, vector := range []bool{false, true} {
		if vector && !vectorCPU() {
			continue
		}
		for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
			for dim := 1; dim <= 17; dim++ {
				t.Run(fmt.Sprintf("vector=%v/%v/dim=%d", vector, dt, dim), func(t *testing.T) {
					defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
					f(t, dim, dt)
				})
			}
		}
	}
}

// vectorCPU reports whether this CPU runs the vector kernels.
func vectorCPU() bool {
	was := tensor.SetVectorKernels(true)
	return tensor.SetVectorKernels(was)
}

// TestDedupForwardBitIdentical pins the core RecD guarantee: pooled
// outputs from the dedup kernel are bit-identical to the plain kernel's
// and to the call-per-pair loop both replace (AddTo2 per pair of ids,
// AddTo for an odd last one, or their bf16 forms), over tables holding
// hostile values.
func TestDedupForwardBitIdentical(t *testing.T) {
	dedupCases(t, func(t *testing.T, dim int, dt tensor.DType) {
		rng := xrand.New(int64(2 + dim))
		tab := NewTableTyped("dedup", 200, dim, dt, rng)
		fillHostile(rng, tab.Weights.Data)
		tab.SyncAll()
		bag := skewedBag(rng, 48, 200, 8)
		var d DedupIndex
		d.Build(bag)

		want := tensor.New(48, dim)
		for i := 0; i < bag.Batch(); i++ {
			row, ids := want.Row(i), bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]]
			k := 0
			for ; k+2 <= len(ids); k += 2 {
				a, b := int(ids[k]), int(ids[k+1])
				if dt == tensor.FP32 {
					tensor.AddTo2(row, tab.Weights.Row(a), tab.Weights.Row(b))
				} else {
					tensor.AddBF16To2(row, tab.halfRow(a), tab.halfRow(b))
				}
			}
			if k < len(ids) {
				if a := int(ids[k]); dt == tensor.FP32 {
					tensor.AddTo(row, tab.Weights.Row(a))
				} else {
					tensor.AddBF16To(row, tab.halfRow(a))
				}
			}
		}
		plain := tensor.New(48, dim)
		dedup := tensor.New(48, dim)
		plain.Fill(7) // both kernels overwrite their output
		dedup.Fill(7)
		sc := NewScratch()
		tab.BagForwardInto(bag, plain, sc)
		tab.BagForwardDedup(bag, &d, dedup, sc)
		for name, got := range map[string]*tensor.Matrix{"plain": plain, "dedup": dedup} {
			if i := firstBitDiff(got.Data, want.Data); i >= 0 {
				t.Fatalf("%s pooled output differs at %d: %v (%#x), want %v (%#x)", name, i,
					got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
			}
		}
	})
}

// TestDedupBackwardBitIdentical checks values AND first-touch key order of
// the scattered SparseGrad match the plain kernel, so optimizer
// application is unchanged, for pooled-output gradients holding hostile
// values.
func TestDedupBackwardBitIdentical(t *testing.T) {
	dedupCases(t, func(t *testing.T, dim int, dt tensor.DType) {
		rng := xrand.New(int64(3 + dim))
		tab := NewTableTyped("dedup", 150, dim, dt, rng)
		bag := skewedBag(rng, 32, 150, 6)
		var d DedupIndex
		d.Build(bag)

		dOut := tensor.New(32, dim)
		fillHostile(rng, dOut.Data)
		plain := NewSparseGrad(dim)
		dd := NewSparseGrad(dim)
		tab.BagBackward(bag, dOut, plain)
		tab.BagBackwardDedup(bag, &d, dOut, dd)

		pk, dk := plain.RowIDs(), dd.RowIDs()
		if len(pk) != len(dk) {
			t.Fatalf("touched %d rows, plain touched %d", len(dk), len(pk))
		}
		for i := range pk {
			if pk[i] != dk[i] {
				t.Fatalf("first-touch order differs at %d: %d vs %d", i, dk[i], pk[i])
			}
		}
		if i := firstBitDiff(dd.Slab(), plain.Slab()); i >= 0 {
			t.Fatalf("row %d grad differs at %d: %v (%#x) vs %v (%#x)", pk[i/dim], i%dim,
				dd.Slab()[i], math.Float32bits(dd.Slab()[i]), plain.Slab()[i], math.Float32bits(plain.Slab()[i]))
		}
	})
}

// TestDedupBackwardNeedsEmptyGrad: the dedup scatter adopts Unique as
// the accumulator's rows, so it refuses one that already holds some.
func TestDedupBackwardNeedsEmptyGrad(t *testing.T) {
	tab := NewTable("dedup", 10, 2, xrand.New(6))
	bag := NewBag([][]int32{{1, 2}})
	var d DedupIndex
	d.Build(bag)
	sg := NewSparseGrad(2)
	sg.Add(3, []float32{1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("dedup backward into a non-empty SparseGrad did not panic")
		}
	}()
	tab.BagBackwardDedup(bag, &d, tensor.New(1, 2), sg)
}

// TestDedupLookupCounter checks the counter charges unique reads only.
func TestDedupLookupCounter(t *testing.T) {
	rng := xrand.New(4)
	tab := NewTable("count", 10, 4, rng)
	bag := NewBag([][]int32{{1, 1, 2}, {2, 1}})
	var d DedupIndex
	d.Build(bag)
	out := tensor.New(2, 4)
	sc := NewScratch()
	tab.BagForwardDedup(bag, &d, out, sc)
	if got := tab.Lookups(); got != 2 {
		t.Fatalf("dedup forward charged %d lookups, want 2 unique", got)
	}
}

// TestDedupSteadyStateAllocFree: rebuilding the view and re-running both
// kernels on warmed storage must not allocate, on a small skewed bag, a
// sparse_heavy-shaped one and a strided one.
func TestDedupSteadyStateAllocFree(t *testing.T) {
	rng := xrand.New(5)
	tab := NewTable("alloc", 300*4096, 16, rng)
	bags := map[string]Bag{
		"skewed":       skewedBag(rng, 64, 300, 8),
		"sparse_heavy": sparseHeavyBag(6),
		"strided":      stridedBag(),
	}
	for name, bag := range bags {
		var d DedupIndex
		out := tensor.New(bag.Batch(), 16)
		dOut := tensor.New(bag.Batch(), 16)
		tensor.NormalInit(dOut, 1, rng)
		sg := NewSparseGrad(16)
		sc := NewScratch()
		step := func() {
			d.Build(bag)
			tab.BagForwardDedup(bag, &d, out, sc)
			sg.Reset()
			tab.BagBackwardDedup(bag, &d, dOut, sg)
		}
		step()
		if avg := testing.AllocsPerRun(10, step); avg != 0 {
			t.Errorf("%s: steady-state dedup path allocates %.1f objects, want 0", name, avg)
		}
	}
}
