package embedding

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// sparseHeavyBag is one table's bag on the sparse_heavy benchmark shape:
// 128 examples × 27 ids drawn Zipf(1.2) over 200k rows, the way the data
// generator draws them.
func sparseHeavyBag(seed int64) Bag {
	zipf := xrand.New(seed).Zipf(1.2, 200_000-1)
	per := make([][]int32, 128)
	for i := range per {
		for k := 0; k < 27; k++ {
			per[i] = append(per[i], int32(zipf.Uint64()))
		}
	}
	return NewBag(per)
}

// stridedBag repeats multiples of 4096: ids that share all their low
// bits, which a low-bits hash would pile into one probe run.
func stridedBag() Bag {
	per := make([][]int32, 64)
	for i := range per {
		for k := 0; k < 8; k++ {
			per[i] = append(per[i], int32((i*7+k*13)%200)*4096)
		}
	}
	return NewBag(per)
}

// rowOf returns row ix's accumulated gradient, found through ForEach, or
// nil if the bag never touched ix.
func rowOf(sg *SparseGrad, ix int32) []float32 {
	var row []float32
	sg.ForEach(func(id int32, g []float32) {
		if id == ix {
			row = g
		}
	})
	return row
}

// checkDedup compares d, built from bag, with a map reference: Unique in
// first-occurrence order, Remap pointing every index at its row.
func checkDedup(t *testing.T, d *DedupIndex, bag Bag) {
	t.Helper()
	pos := map[int32]int32{}
	var unique []int32
	for _, ix := range bag.Indices {
		if _, ok := pos[ix]; !ok {
			pos[ix] = int32(len(unique))
			unique = append(unique, ix)
		}
	}
	if !d.Built() {
		t.Fatal("Build left the view unbuilt")
	}
	if len(d.Unique) != len(unique) || len(d.Remap) != len(bag.Indices) {
		t.Fatalf("%d unique / %d remapped, want %d / %d",
			len(d.Unique), len(d.Remap), len(unique), len(bag.Indices))
	}
	for u, ix := range unique {
		if d.Unique[u] != ix {
			t.Fatalf("Unique[%d] = %d, want first-occurrence %d", u, d.Unique[u], ix)
		}
	}
	for k, ix := range bag.Indices {
		if d.Remap[k] != pos[ix] {
			t.Fatalf("Remap[%d] = %d, want %d (row %d)", k, d.Remap[k], pos[ix], ix)
		}
	}
}

// checkScatter compares sg with a map reference that adds dOut's rows in
// the plain kernel's order onto +0: the same row ids in first-touch
// order and the same gradient bits. passes is how many times the bag was
// scattered into sg since its Reset.
func checkScatter(t *testing.T, sg *SparseGrad, bag Bag, dOut *tensor.Matrix, passes int) {
	t.Helper()
	ref := map[int32][]float32{}
	var order []int32
	for p := 0; p < passes; p++ {
		for i := 0; i < bag.Batch(); i++ {
			for _, ix := range bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]] {
				row, ok := ref[ix]
				if !ok {
					row = make([]float32, dOut.Cols)
					ref[ix] = row
					order = append(order, ix)
				}
				for j, v := range dOut.Row(i) {
					row[j] += v
				}
			}
		}
	}
	ids := sg.RowIDs()
	if len(ids) != len(order) || sg.NumRows() != len(order) {
		t.Fatalf("%d rows touched, want %d", len(ids), len(order))
	}
	si := 0
	sg.ForEach(func(ix int32, g []float32) {
		if ix != order[si] || ids[si] != ix {
			t.Fatalf("row %d of first-touch order is %d, want %d", si, ix, order[si])
		}
		for j, v := range ref[ix] {
			if math.Float32bits(g[j]) != math.Float32bits(v) {
				t.Fatalf("row %d col %d: %v, want %v bit for bit", ix, j, g[j], v)
			}
		}
		si++
	})
}

// fuzzBag decodes a bag. data[0] packs the ids per example (1 + its low 3
// bits), the id width in bytes (1 + the next 2) and a left shift (4 × the
// top 3, so strided ids are one byte away); the rest is little-endian ids
// of that width, with a short tail dropped.
func fuzzBag(data []byte) Bag {
	if len(data) == 0 {
		return NewBag(nil)
	}
	h := data[0]
	per, width, shift := 1+int(h&7), 1+int(h>>3&3), 4*uint(h>>5)
	var ex [][]int32
	for p := data[1:]; len(p) >= width; p = p[width:] {
		var buf [4]byte
		copy(buf[:], p[:width])
		id := int32(binary.LittleEndian.Uint32(buf[:]) << shift)
		if len(ex) == 0 || len(ex[len(ex)-1]) == per {
			ex = append(ex, nil)
		}
		ex[len(ex)-1] = append(ex[len(ex)-1], id)
	}
	return NewBag(ex)
}

// FuzzDedupIndex checks the row-set under DedupIndex and SparseGrad
// against map references on two byte-derived bags in a row, through one
// reused DedupIndex and two reused SparseGrads: the second bag meets
// storage, stamps and a probe table left by the first. Per bag it checks
// Unique, Remap and first-occurrence order; the plain and the dedup
// scatter's RowIDs and slab bit for bit; and a plain scatter on top of
// the dedup one, which must index the adopted rows before probing.
func FuzzDedupIndex(f *testing.F) {
	ids := func(h byte, width int, vals ...uint32) []byte {
		b := []byte{h}
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, v)[:len(b)+width]
		}
		return b
	}
	var strided, repeated, growth []uint32
	for i := uint32(0); i < 300; i++ {
		strided = append(strided, i*37%97) // shifted by 12: multiples of 4096
		repeated = append(repeated, 5)
	}
	for i := uint32(0); i < 5000; i++ {
		growth = append(growth, i*7919%4099)
	}
	f.Add(ids(7|1<<3|3<<5, 2, strided...), ids(3|1<<3|3<<5, 2, strided[:40]...))
	f.Add(ids(3|3<<3, 4, math.MaxInt32, math.MaxInt32-1, math.MaxInt32, 1<<31, math.MaxInt32-4096),
		ids(1|3<<3, 4, math.MaxInt32-2, math.MaxInt32))
	f.Add(ids(7, 1, repeated...), ids(0, 1, repeated[:3]...))
	f.Add([]byte{}, []byte{7})
	f.Add(ids(2|1<<3, 2, 1, 2, 3), ids(7|1<<3, 2, growth...))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		tab := NewTable("fuzz", 1, 3, xrand.New(1))
		var d DedupIndex
		plain, dedup := NewSparseGrad(3), NewSparseGrad(3)
		for n, data := range [][]byte{a, b} {
			bag := fuzzBag(data)
			dOut := tensor.New(bag.Batch(), 3)
			tensor.NormalInit(dOut, 1, xrand.New(int64(n)))
			d.Build(bag)
			checkDedup(t, &d, bag)
			plain.Reset()
			tab.BagBackward(bag, dOut, plain)
			checkScatter(t, plain, bag, dOut, 1)
			dedup.Reset()
			tab.BagBackwardDedup(bag, &d, dOut, dedup)
			checkScatter(t, dedup, bag, dOut, 1)
			tab.BagBackward(bag, dOut, dedup)
			checkScatter(t, dedup, bag, dOut, 2)
		}
	})
}

// TestRowSetGenerationWrap forces the generation counter across its
// wrap: cells stamped by generation 1 long ago must not read as live
// when the counter comes round to 1 again.
func TestRowSetGenerationWrap(t *testing.T) {
	var s rowSet
	for _, id := range []int32{5, 6, 7} {
		s.slot(id)
	}
	s.gen = math.MaxUint32 // 2³²−2 resets later
	s.reset()
	if s.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", s.gen)
	}
	if slot, fresh := s.slot(6); slot != 0 || !fresh {
		t.Fatalf("slot(6) after wrap = %d (fresh %v), want a fresh slot 0", slot, fresh)
	}

	// The same through DedupIndex and SparseGrad, a few batches either
	// side of the wrap. The wrap lands on the small bag, whose ids the
	// first bag left stamped 1 in cells no growth replaces.
	tab := NewTable("wrap", 1, 2, xrand.New(2))
	var d DedupIndex
	sg := NewSparseGrad(2)
	bags := []Bag{sparseHeavyBag(3), stridedBag(), NewBag([][]int32{{4096, 7}, {7}})}
	for i := 0; i < 6; i++ {
		if i == 1 {
			d.rows.gen, sg.rows.gen = math.MaxUint32-1, math.MaxUint32-1
		}
		bag := bags[i%len(bags)]
		dOut := tensor.New(bag.Batch(), 2)
		tensor.NormalInit(dOut, 1, xrand.New(int64(i)))
		d.Build(bag)
		checkDedup(t, &d, bag)
		sg.Reset()
		tab.BagBackward(bag, dOut, sg)
		checkScatter(t, sg, bag, dOut, 1)
	}
}

// BenchmarkScatterSparseHeavy is BagBackward over one sparse_heavy-shaped
// table (3,456 ids, dim 64) into a reused SparseGrad.
func BenchmarkScatterSparseHeavy(b *testing.B) {
	bag := sparseHeavyBag(1)
	tab := NewTable("bench", 200_000, 64, xrand.New(2))
	dOut := tensor.New(bag.Batch(), 64)
	tensor.NormalInit(dOut, 1, xrand.New(3))
	sg := NewSparseGrad(64)
	for b.Loop() {
		sg.Reset()
		tab.BagBackward(bag, dOut, sg)
	}
}

// BenchmarkDedupBuildSparseHeavy is DedupIndex.Build over the same bag.
func BenchmarkDedupBuildSparseHeavy(b *testing.B) {
	bag := sparseHeavyBag(1)
	var d DedupIndex
	for b.Loop() {
		d.Build(bag)
	}
}
