package tensor

import (
	"math"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/xrand"
)

// TestPrefetchRowsAnyAddress drives the prefetch kernel, and its
// wrapper with the vector kernels on and off, over ids no table holds
// and row widths that start rows mid-line. A prefetch never faults, so
// nothing may crash, and it writes nothing, so the rows must be
// unchanged.
func TestPrefetchRowsAnyAddress(t *testing.T) {
	const rows = 1000
	ids := []int32{0, 3, rows - 1, -1, rows, math.MaxInt32, math.MinInt32, 17}
	buf := make([]float32, rows*64+1)
	for i := range buf {
		buf[i] = float32(i)
	}
	want := slices.Clone(buf)
	half := make([]uint16, rows*129+1)
	for i := range half {
		half[i] = uint16(i * 7)
	}
	halfWant := slices.Clone(half)
	for _, rowBytes := range []int{4, 8, 130, 256} {
		prefetchRows(unsafe.Pointer(&buf[0]), &ids[0], 0, rowBytes)
		prefetchRows(unsafe.Pointer(&buf[0]), &ids[0], len(ids), rowBytes)
		// A half replica's rows of odd dim start at any even byte.
		prefetchRows(unsafe.Pointer(&half[1]), &ids[0], len(ids), rowBytes)
	}
	for _, on := range []bool{true, false} {
		withKernels(on, func() {
			for _, dim := range []int{1, 2, 65, 64} {
				PrefetchRows(buf, nil, dim)
				PrefetchRows(nil, ids, dim)
				PrefetchRows(buf, ids, dim)
				PrefetchRows(buf, ids, 0)
			}
		})
	}
	if i := sameBits(buf, want); i >= 0 {
		t.Fatalf("prefetch wrote element %d", i)
	}
	if !slices.Equal(half, halfWant) {
		t.Fatal("prefetch wrote the half rows")
	}
}

// memProbeBytes is the working set of the memory probes: far above any
// last-level cache the repository's benchmarks run on, far below a
// machine's memory.
const memProbeBytes = 128 << 20

// BenchmarkMemLatency is a pointer chase over one random cycle through
// memProbeBytes of 64-byte lines: each load's address is the previous
// load's result, so loads cannot overlap and ns/op is one cache-miss
// round trip (plus a TLB walk for most lines). It is the unit the sparse
// phases' ns-per-row is read against.
func BenchmarkMemLatency(b *testing.B) {
	const stride = 16 // int32s per 64-byte line
	lines := memProbeBytes / 64
	next := make([]int32, lines*stride)
	order := make([]int32, lines)
	for i := range order {
		order[i] = int32(i)
	}
	rng := xrand.New(1)
	for i := len(order) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i, l := range order {
		next[int(l)*stride] = order[(i+1)%len(order)] * stride
	}
	p := int32(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = next[p]
	}
	b.StopTimer()
	if p < 0 {
		b.Fatal("unreachable")
	}
}

// BenchmarkMemStream sums memProbeBytes of float32 front to back: the
// hardware prefetcher sees the whole stream, so MB/s is what one core
// reads when no load waits on a miss.
func BenchmarkMemStream(b *testing.B) {
	x := make([]float32, memProbeBytes/4)
	for i := range x {
		x[i] = 1
	}
	b.SetBytes(memProbeBytes)
	b.ResetTimer()
	var s float32
	for i := 0; i < b.N; i++ {
		var s0, s1, s2, s3 float32
		for j := 0; j+4 <= len(x); j += 4 {
			s0 += x[j]
			s1 += x[j+1]
			s2 += x[j+2]
			s3 += x[j+3]
		}
		s += (s0 + s1) + (s2 + s3)
	}
	b.StopTimer()
	if s < 0 {
		b.Fatal("unreachable")
	}
}
