package embedding

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// skewedBag builds a bag with heavy within-batch repetition.
func skewedBag(rng *xrand.RNG, batch, hashSize, maxLen int) Bag {
	per := make([][]int32, batch)
	zipf := rng.Zipf(1.3, uint64(hashSize-1))
	for i := range per {
		n := 1 + rng.Intn(maxLen)
		for k := 0; k < n; k++ {
			per[i] = append(per[i], int32(zipf.Uint64()))
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
	if r := d.Ratio(); r < 1 {
		t.Fatalf("dedup ratio %v < 1", r)
	}
}

func TestDedupRatioAllUnique(t *testing.T) {
	per := [][]int32{{0, 1, 2}, {3, 4}, {5}}
	var d DedupIndex
	d.Build(NewBag(per))
	if r := d.Ratio(); r != 1.0 {
		t.Fatalf("all-unique ratio %v, want exactly 1.0", r)
	}
}

// TestDedupForwardBitIdentical pins the core RecD guarantee: pooled
// outputs from the dedup kernel are bit-identical to the plain kernel.
func TestDedupForwardBitIdentical(t *testing.T) {
	rng := xrand.New(2)
	tab := NewTable("dedup", 200, 12, rng)
	bag := skewedBag(rng, 48, 200, 8)
	var d DedupIndex
	d.Build(bag)

	plain := tensor.New(48, 12)
	dedup := tensor.New(48, 12)
	sc := NewScratch()
	tab.BagForwardInto(bag, plain, sc)
	tab.BagForwardDedup(bag, &d, dedup, sc)
	for i, v := range plain.Data {
		if dedup.Data[i] != v {
			t.Fatalf("pooled output differs at %d: %v vs %v", i, dedup.Data[i], v)
		}
	}
}

// TestDedupBackwardBitIdentical checks values AND first-touch key order of
// the scattered SparseGrad match the plain kernel, so optimizer
// application is unchanged.
func TestDedupBackwardBitIdentical(t *testing.T) {
	rng := xrand.New(3)
	tab := NewTable("dedup", 150, 8, rng)
	bag := skewedBag(rng, 32, 150, 6)
	var d DedupIndex
	d.Build(bag)

	dOut := tensor.New(32, 8)
	tensor.NormalInit(dOut, 1, rng)
	plain := NewSparseGrad(8)
	dd := NewSparseGrad(8)
	tab.BagBackward(bag, dOut, plain)
	tab.BagBackwardDedup(bag, &d, dOut, dd)

	pk, dk := plain.RowIDs(), dd.RowIDs()
	if len(pk) != len(dk) {
		t.Fatalf("touched %d rows, plain touched %d", len(dk), len(pk))
	}
	var pg [][]float32
	plain.ForEach(func(_ int32, g []float32) { pg = append(pg, g) })
	i := 0
	dd.ForEach(func(ix int32, dg []float32) {
		if pk[i] != ix {
			t.Fatalf("first-touch order differs at %d: %d vs %d", i, ix, pk[i])
		}
		for j := range dg {
			if pg[i][j] != dg[j] {
				t.Fatalf("row %d grad differs at %d: %v vs %v", ix, j, dg[j], pg[i][j])
			}
		}
		i++
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
