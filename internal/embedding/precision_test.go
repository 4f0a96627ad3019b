package embedding

import (
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func reducedDTypes() []tensor.DType { return []tensor.DType{tensor.BF16, tensor.FP16} }

func TestTypedTableBytesAndReplica(t *testing.T) {
	rng := xrand.New(1)
	full := NewTable("f", 100, 8, xrand.New(1))
	if got, want := full.Bytes(), int64(100*8*4); got != want {
		t.Fatalf("fp32 Bytes = %d, want %d", got, want)
	}
	for _, dt := range reducedDTypes() {
		tab := NewTableTyped("r", 100, 8, dt, rng)
		if got, want := tab.Bytes(), int64(100*8*2); got != want {
			t.Fatalf("%v Bytes = %d, want %d", dt, got, want)
		}
		// The replica must be the exact quantization of the master.
		for ix := 0; ix < tab.HashSize; ix++ {
			row := tab.Weights.Row(ix)
			for j, u := range tab.halfRow(ix) {
				var want uint16
				if dt == tensor.BF16 {
					want = tensor.F32ToBF16(row[j])
				} else {
					want = tensor.F32ToFP16(row[j])
				}
				if u != want {
					t.Fatalf("%v row %d col %d replica %#04x, want %#04x", dt, ix, j, u, want)
				}
			}
		}
	}
}

func TestTypedForwardReadsQuantizedRows(t *testing.T) {
	for _, dt := range reducedDTypes() {
		tab := NewTableTyped("r", 50, 6, dt, xrand.New(2))
		bag := NewBag([][]int32{{3}, {7, 7}, {1, 2, 3}})
		out := tensor.New(3, 6)
		tab.BagForwardInto(bag, out, NewScratch())
		dec := make([]float32, 6)
		want := make([]float32, 6)
		for i, idxs := range [][]int32{{3}, {7, 7}, {1, 2, 3}} {
			clear(want)
			for _, ix := range idxs {
				tensor.Decode(dt, dec, tab.halfRow(int(ix)))
				for j := range want {
					want[j] += dec[j]
				}
			}
			// Same association order as the fused kernels for <=2-row
			// bags; the 3-row bag checks the pair+tail split too.
			got := out.Row(i)
			for j := range want {
				if diff := got[j] - want[j]; diff > 1e-6 || diff < -1e-6 {
					t.Fatalf("%v example %d col %d: got %v want %v", dt, i, j, got[j], want[j])
				}
			}
		}
	}
}

// The dedup kernels must stay bit-identical to the plain kernels on
// reduced-precision tables (both read the same quantized values).
func TestDedupBitIdenticalReducedPrecision(t *testing.T) {
	for _, dt := range reducedDTypes() {
		tab := NewTableTyped("r", 64, 16, dt, xrand.New(3))
		rng := xrand.New(4)
		per := make([][]int32, 32)
		for i := range per {
			n := 1 + int(rng.Uint64()%5)
			for k := 0; k < n; k++ {
				per[i] = append(per[i], int32(rng.Uint64()%64))
			}
		}
		bag := NewBag(per)
		sc := NewScratch()
		plain := tensor.New(32, 16)
		tab.BagForwardInto(bag, plain, sc)
		var d DedupIndex
		d.Build(bag)
		dedup := tensor.New(32, 16)
		tab.BagForwardDedup(bag, &d, dedup, sc)
		for i := range plain.Data {
			if plain.Data[i] != dedup.Data[i] {
				t.Fatalf("%v: plain and dedup forward differ at %d (%v vs %v)",
					dt, i, plain.Data[i], dedup.Data[i])
			}
		}
	}
}

func TestCloneCarriesDType(t *testing.T) {
	tab := NewTableTyped("r", 20, 4, tensor.BF16, xrand.New(5))
	c := tab.Clone()
	if c.DType != tensor.BF16 || c.half == nil {
		t.Fatalf("clone lost the reduced storage (dtype %v, half nil=%v)", c.DType, c.half == nil)
	}
	for i := range tab.half {
		if c.half[i] != tab.half[i] {
			t.Fatalf("clone replica differs at %d", i)
		}
	}
	// Independence: mutating the clone must not touch the original.
	c.Weights.Data[0] += 1
	c.SyncRow(0)
	if c.half[0] == tab.half[0] && c.Weights.Data[0] == tab.Weights.Data[0] {
		t.Fatal("clone aliases the original table")
	}
}

func TestTypedForwardSteadyStateAllocFree(t *testing.T) {
	for _, dt := range reducedDTypes() {
		tab := NewTableTyped("r", 128, 16, dt, xrand.New(6))
		per := make([][]int32, 16)
		for i := range per {
			per[i] = []int32{int32(i), int32(i + 1), int32(i + 2)}
		}
		bag := NewBag(per)
		sc := NewScratch()
		out := tensor.New(16, 16)
		var d DedupIndex
		d.Build(bag)
		tab.BagForwardDedup(bag, &d, out, sc) // warm the slabs
		n := testing.AllocsPerRun(20, func() {
			tab.BagForwardInto(bag, out, sc)
			d.Build(bag)
			tab.BagForwardDedup(bag, &d, out, sc)
			tab.SyncRow(3)
		})
		if n != 0 {
			t.Fatalf("%v steady-state forward allocates %v/op, want 0", dt, n)
		}
	}
}
