package embedding

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func TestNewTableInit(t *testing.T) {
	rng := xrand.New(1)
	tab := NewTable("t", 100, 16, rng)
	bound := float32(1.0 / math.Sqrt(16))
	nonzero := false
	for _, v := range tab.Weights.Data {
		if v < -bound || v > bound {
			t.Fatalf("init value %v outside ±%v", v, bound)
		}
		if v != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all-zero init")
	}
}

func TestNewTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("bad", 0, 8, xrand.New(1))
}

func TestBagConstructionAndValidate(t *testing.T) {
	bag := NewBag([][]int32{{1, 2}, {}, {3}})
	if bag.Batch() != 3 {
		t.Errorf("Batch = %d", bag.Batch())
	}
	if bag.TotalLookups() != 3 {
		t.Errorf("TotalLookups = %d", bag.TotalLookups())
	}
	if err := bag.Validate(10); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if err := bag.Validate(3); err == nil {
		t.Error("Validate should reject out-of-range index 3")
	}
	bad := Bag{Indices: []int32{1}, Offsets: []int32{0, 2}}
	if err := bad.Validate(10); err == nil {
		t.Error("Validate should reject inconsistent final offset")
	}
}

func TestForwardSumPooling(t *testing.T) {
	rng := xrand.New(4)
	tab := NewTable("t", 10, 4, rng)
	bag := NewBag([][]int32{{0, 1}, {2}, {}})
	out := tensor.New(3, 4)
	tab.BagForwardInto(bag, out, NewScratch())
	for j := 0; j < 4; j++ {
		want := tab.Weights.At(0, j) + tab.Weights.At(1, j)
		if math.Abs(float64(out.At(0, j)-want)) > 1e-6 {
			t.Errorf("pooled[0][%d] = %v, want %v", j, out.At(0, j), want)
		}
		if out.At(1, j) != tab.Weights.At(2, j) {
			t.Errorf("pooled[1][%d] mismatch", j)
		}
		if out.At(2, j) != 0 {
			t.Errorf("empty bag should pool to zero, got %v", out.At(2, j))
		}
	}
	if tab.Lookups() != 3 {
		t.Errorf("Lookups = %d, want 3", tab.Lookups())
	}
}

func TestForwardPanicsOnShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tab := NewTable("t", 10, 4, xrand.New(5))
	tab.BagForwardInto(NewBag([][]int32{{1}}), tensor.New(2, 4), NewScratch())
}

func TestBackwardScatter(t *testing.T) {
	tab := NewTable("t", 10, 2, xrand.New(6))
	bag := NewBag([][]int32{{0, 1}, {1}})
	dOut := tensor.FromData(2, 2, []float32{1, 2, 10, 20})
	sg := NewSparseGrad(2)
	tab.BagBackward(bag, dOut, sg)
	if sg.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", sg.NumRows())
	}
	// Row 0 only from example 0: [1,2]. Row 1 from both: [11,22].
	if g := rowOf(sg, 0); g == nil || g[0] != 1 || g[1] != 2 {
		t.Errorf("row0 grad = %v", g)
	}
	if g := rowOf(sg, 1); g == nil || g[0] != 11 || g[1] != 22 {
		t.Errorf("row1 grad = %v", g)
	}
	sg.Reset()
	if sg.NumRows() != 0 {
		t.Error("Reset failed")
	}
}

// TestSparseGradReuseIsAllocFree exercises the slab accumulator's
// steady-state contract: Reset retains storage, so a second identical
// accumulation pass allocates nothing.
func TestSparseGradReuseIsAllocFree(t *testing.T) {
	tab := NewTable("t", 50, 4, xrand.New(9))
	bag := NewBag([][]int32{{0, 7, 7}, {13}, {0, 21}})
	dOut := tensor.New(3, 4)
	tensor.NormalInit(dOut, 1, xrand.New(10))
	sg := NewSparseGrad(4)
	tab.BagBackward(bag, dOut, sg) // warm the slab and row-set
	if avg := testing.AllocsPerRun(20, func() {
		sg.Reset()
		tab.BagBackward(bag, dOut, sg)
	}); avg != 0 {
		t.Errorf("steady-state BagBackward allocates %.1f objects per pass, want 0", avg)
	}
	// The same on a sparse_heavy-shaped bag and a strided one.
	for name, big := range map[string]Bag{"sparse_heavy": sparseHeavyBag(4), "strided": stridedBag()} {
		bigOut := tensor.New(big.Batch(), 4)
		bigGrad := NewSparseGrad(4)
		tab.BagBackward(big, bigOut, bigGrad)
		if avg := testing.AllocsPerRun(10, func() {
			bigGrad.Reset()
			tab.BagBackward(big, bigOut, bigGrad)
		}); avg != 0 {
			t.Errorf("%s: steady-state BagBackward allocates %.1f objects per pass, want 0", name, avg)
		}
	}
	// ForEach visits rows in first-touch order with the right values.
	var ids []int32
	sg.ForEach(func(ix int32, g []float32) { ids = append(ids, ix) })
	if len(ids) != 4 || ids[0] != 0 || ids[1] != 7 || ids[2] != 13 || ids[3] != 21 {
		t.Errorf("ForEach order = %v, want [0 7 13 21]", ids)
	}
	if g := rowOf(sg, 7); g == nil || math.Abs(float64(g[0]-2*dOut.At(0, 0))) > 1e-6 {
		t.Errorf("row 7 grad = %v, want duplicate-weighted %v", g, 2*dOut.At(0, 0))
	}
}

// TestLookupCounterSumsAcrossScratch checks that the table's one counter
// sums the lookups of several Scratch values, each on its own goroutine.
func TestLookupCounterSumsAcrossScratch(t *testing.T) {
	tab := NewTable("t", 10, 2, xrand.New(13))
	bag := NewBag([][]int32{{0, 1, 2}})
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tab.BagForwardInto(bag, tensor.New(1, 2), NewScratch())
		}()
	}
	wg.Wait()
	if got := tab.Lookups(); got != 12 {
		t.Errorf("Lookups = %d, want 12 across scratches", got)
	}
}

// TestForwardBackwardGradCheck validates the pooled-lookup gradient via a
// finite-difference probe on a scalar objective sum(out * c).
func TestForwardBackwardGradCheck(t *testing.T) {
	rng := xrand.New(7)
	tab := NewTable("t", 6, 3, rng)
	bag := NewBag([][]int32{{0, 2, 2}, {1}})
	c := tensor.FromData(2, 3, []float32{0.5, -1, 2, 1, 1, -0.5})

	objective := func() float64 {
		out := tensor.New(2, 3)
		tab.BagForwardInto(bag, out, NewScratch())
		var s float64
		for i, v := range out.Data {
			s += float64(v) * float64(c.Data[i])
		}
		return s
	}
	sg := NewSparseGrad(3)
	tab.BagBackward(bag, c, sg)

	// Probe a few weights.
	for _, probe := range []struct{ row, col int }{{0, 0}, {2, 1}, {1, 2}, {5, 0}} {
		i := probe.row*3 + probe.col
		orig := tab.Weights.Data[i]
		const eps = 1e-2
		tab.Weights.Data[i] = orig + eps
		fp := objective()
		tab.Weights.Data[i] = orig - eps
		fm := objective()
		tab.Weights.Data[i] = orig
		numeric := (fp - fm) / (2 * eps)
		var analytic float64
		if g := rowOf(sg, int32(probe.row)); g != nil {
			analytic = float64(g[probe.col])
		}
		if math.Abs(numeric-analytic) > 1e-3 {
			t.Errorf("weight (%d,%d): numeric %v vs analytic %v", probe.row, probe.col, numeric, analytic)
		}
	}
}

func TestDuplicateIndexPooling(t *testing.T) {
	// An index appearing twice in one example must be added twice and
	// receive twice the gradient.
	tab := NewTable("t", 4, 1, xrand.New(8))
	tab.Weights.Set(3, 0, 5)
	bag := NewBag([][]int32{{3, 3}})
	out := tensor.New(1, 1)
	tab.BagForwardInto(bag, out, NewScratch())
	if out.At(0, 0) != 10 {
		t.Errorf("duplicate pooling = %v, want 10", out.At(0, 0))
	}
	sg := NewSparseGrad(1)
	tab.BagBackward(bag, tensor.FromData(1, 1, []float32{1}), sg)
	if g := rowOf(sg, 3); g == nil || g[0] != 2 {
		t.Errorf("duplicate grad = %v, want 2", g)
	}
}
