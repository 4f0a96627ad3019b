package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/xrand"
)

// withKernels runs f with the vector kernels on or off.
func withKernels(on bool, f func()) {
	defer SetVectorKernels(SetVectorKernels(on))
	f()
}

func requireVectorCPU(t testing.TB) {
	if !vectorCPU {
		t.Skip("no vector kernels on this CPU")
	}
}

// sameBits reports the first element where got and want differ in their
// bits, or -1. Two NaNs match whatever their payloads: x86 takes a NaN
// result's payload from whichever operand comes first, and IEEE add and
// multiply are otherwise commutative.
func sameBits(got, want []float32) int {
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

// hostile are the values the vector kernels must round exactly like the
// scalar ones: signed zeros, denormals, infinities and magnitudes whose
// products overflow or underflow.
var hostile = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	1e30, -1e30, 1e-30, -1e-30, 3e38, 1.5e-38,
}

// fillHostile fills x with normal draws, about one in eight replaced by a
// hostile value.
func fillHostile(rng *xrand.RNG, x []float32) {
	for i := range x {
		if rng.Intn(8) == 0 {
			x[i] = hostile[rng.Intn(len(hostile))]
		} else {
			x[i] = float32(rng.NormMS(0, 1))
		}
	}
}

// TestVectorKernelsMatchGeneric runs every vector kernel against the Go
// loop it replaces, bit for bit, over lengths 0-300 at every sub-slice
// offset 0-7 (so no load is 32-byte aligned by accident) with hostile
// values mixed into operands and coefficients.
func TestVectorKernelsMatchGeneric(t *testing.T) {
	requireVectorCPU(t)
	rng := xrand.New(11)
	const maxN = 300
	buf := func() []float32 { return make([]float32, maxN+8) }
	x0, x1, x2, x3, y := buf(), buf(), buf(), buf(), buf()
	gen, vec := buf(), buf()
	acc, accGen, accVec := buf(), buf(), buf()
	coef := func() float32 {
		if rng.Intn(4) == 0 {
			return hostile[rng.Intn(len(hostile))]
		}
		return float32(rng.NormMS(0, 1))
	}
	kernels := []struct {
		name string
		run  func(off, n int, c [4]float32, y, acc []float32)
	}{
		{"Axpy", func(o, n int, c [4]float32, y, _ []float32) { Axpy(c[0], x0[o:o+n], y) }},
		{"AddTo", func(o, n int, _ [4]float32, y, _ []float32) { AddTo(y, x0[o:o+n]) }},
		{"AddTo2", func(o, n int, _ [4]float32, y, _ []float32) { AddTo2(y, x0[o:o+n], x1[o:o+n]) }},
		{"axpy2", func(o, n int, c [4]float32, y, _ []float32) { axpy2(c[0], x0[o:o+n], c[1], x1[o:o+n], y) }},
		{"axpy4", func(o, n int, c [4]float32, y, _ []float32) {
			axpy4(c[0], x0[o:o+n], c[1], x1[o:o+n], c[2], x2[o:o+n], c[3], x3[o:o+n], y)
		}},
		{"AdagradStep", func(o, n int, c [4]float32, y, acc []float32) {
			AdagradStep(y, x0[o:o+n], acc, c[0], float32(math.Abs(float64(c[1])))*1e-8)
		}},
	}
	for _, k := range kernels {
		for n := 0; n <= maxN; n++ {
			for off := 0; off < 8; off++ {
				for _, s := range [][]float32{x0, x1, x2, x3, y, acc} {
					fillHostile(rng, s)
				}
				for i := range acc {
					acc[i] = float32(math.Abs(float64(acc[i])))
				}
				c := [4]float32{coef(), coef(), coef(), coef()}
				// The destination sits at a different offset from the
				// sources, so their alignments differ too.
				d := (off + 3) % 8
				copy(gen, y)
				copy(vec, y)
				copy(accGen, acc)
				copy(accVec, acc)
				withKernels(false, func() { k.run(off, n, c, gen[d:d+n], accGen[d:d+n]) })
				withKernels(true, func() { k.run(off, n, c, vec[d:d+n], accVec[d:d+n]) })
				if i := sameBits(vec, gen); i >= 0 {
					t.Fatalf("%s n=%d off=%d: element %d = %v (%#x), Go kernel %v (%#x)",
						k.name, n, off, i-d, vec[i], math.Float32bits(vec[i]), gen[i], math.Float32bits(gen[i]))
				}
				if i := sameBits(accVec, accGen); i >= 0 {
					t.Fatalf("%s n=%d off=%d: accumulator %d = %v, Go kernel %v", k.name, n, off, i-d, accVec[i], accGen[i])
				}
			}
		}
	}
}

// checkTransB runs MatMulTransB on a (m×k) and b (n×k) with the vector
// kernels off and on and requires the same bits.
func checkTransB(t testing.TB, a, b *Matrix) {
	t.Helper()
	want, got := New(a.Rows, b.Rows), New(a.Rows, b.Rows)
	withKernels(false, func() { MatMulTransB(want, a, b) })
	withKernels(true, func() { MatMulTransB(got, a, b) })
	if i := sameBits(got.Data, want.Data); i >= 0 {
		t.Fatalf("MatMulTransB %dx%d·(%dx%d)ᵀ: dst[%d][%d] = %v, Go kernel %v",
			a.Rows, a.Cols, b.Rows, b.Cols, i/b.Rows, i%b.Rows, got.Data[i], want.Data[i])
	}
}

// TestVectorMatMulTransBMatchesGeneric covers the packed dX kernel on
// random shapes (k = 0, odd k, n < 8, odd n, row counts that leave 1-3
// rows after the 4-row groups) and on the benchmark's shapes: dense_heavy's
// two backward GEMMs and sparse_heavy's, serial and on the pool.
func TestVectorMatMulTransBMatchesGeneric(t *testing.T) {
	requireVectorCPU(t)
	rng := xrand.New(12)
	matrix := func(r, c int) *Matrix {
		m := New(r, c)
		fillHostile(rng, m.Data)
		return m
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < 200; i++ {
				m, k, n := 1+rng.Intn(13), rng.Intn(40), 1+rng.Intn(40)
				checkTransB(t, matrix(m, k), matrix(n, k))
			}
			for _, sh := range []struct{ m, k, n int }{
				{64, 512, 256}, {64, 256, 512}, // dense_heavy
				{128, 64, 100}, // sparse_heavy
				{37, 129, 67},  // pooled, with remainders everywhere
			} {
				checkTransB(t, matrix(sh.m, sh.k), matrix(sh.n, sh.k))
			}
		})
	}
}

// FuzzMatMulTransB decodes a shape and the operands' values from the
// input and checks the packed kernel against the Go kernel bit for bit.
func FuzzMatMulTransB(f *testing.F) {
	requireVectorCPU(f)
	f.Add([]byte{4, 3, 8, 0, 0, 128, 63})
	f.Add([]byte{5, 0, 17})
	f.Add([]byte{1, 9, 9, 1, 0, 0, 0, 0, 0, 128, 255, 0, 0, 128, 127})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		m, k, n := 1+int(in[0])%16, int(in[1])%40, 1+int(in[2])%40
		vals := in[3:]
		next := 0
		matrix := func(r, c int) *Matrix {
			x := New(r, c)
			for i := range x.Data {
				if len(vals) >= 4 {
					x.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(vals[next%(len(vals)-3):]))
				}
				next += 4
			}
			return x
		}
		checkTransB(t, matrix(m, k), matrix(n, k))
	})
}

// fuzzFloats returns n float32s read from in as little-endian bit
// patterns, cycling through it; all zeros when in is shorter than a float.
func fuzzFloats(in []byte, n int) []float32 {
	x := make([]float32, n)
	if len(in) < 4 {
		return x
	}
	for i := range x {
		x[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[(4*i)%(len(in)-3):]))
	}
	return x
}

// sumSquaresOracle is the one-row-at-a-time loop SumSquaresRows replaces.
func sumSquaresOracle(sums, rows []float32, dim int) {
	for r := range sums {
		var sq float32
		for _, v := range rows[r*dim : (r+1)*dim] {
			sq += v * v
		}
		sums[r] = sq
	}
}

// checkSumSquares runs SumSquaresRows with the vector kernels off and on
// against the oracle, bit for bit.
func checkSumSquares(t testing.TB, rows []float32, n, dim int) {
	t.Helper()
	want := make([]float32, n)
	sumSquaresOracle(want, rows, dim)
	for _, vec := range []bool{false, true} {
		got := make([]float32, n)
		withKernels(vec, func() { SumSquaresRows(got, rows, dim) })
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("SumSquaresRows n=%d dim=%d vector=%v: row %d = %v, oracle %v", n, dim, vec, i, got[i], want[i])
		}
	}
}

// FuzzSumSquaresRows decodes a row count, a width and the rows' bit
// patterns from the input and checks both paths against the oracle.
func FuzzSumSquaresRows(f *testing.F) {
	f.Add([]byte{8, 8, 0, 0, 128, 63})
	f.Add([]byte{17, 65, 1, 0, 0, 0, 0, 0, 128, 127, 0, 0, 128, 255, 0, 0, 192, 127})
	f.Add([]byte{9, 2, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n, dim := int(in[0])%42, int(in[1])%131
		checkSumSquares(t, fuzzFloats(in[2:], n*dim), n, dim)
	})
}

// dotPairsOracle and dotPairsBackwardOracle are the dot interaction's
// per-pair Dot and Axpy loops that DotPairs and DotPairsBackward replace.
func dotPairsOracle(dst, rows []float32, n, d int) {
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst[k] = Dot(rows[i*d:(i+1)*d], rows[j*d:(j+1)*d])
			k++
		}
	}
}

func dotPairsBackwardOracle(grads, rows, g []float32, n, d int) {
	k := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gd := g[k]
			k++
			if gd == 0 {
				continue
			}
			Axpy(gd, rows[j*d:(j+1)*d], grads[i*d:(i+1)*d])
			Axpy(gd, rows[i*d:(i+1)*d], grads[j*d:(j+1)*d])
		}
	}
}

// checkDotPairs runs DotPairs and DotPairsBackward (onto grads0) with the
// vector kernels off and on against the oracles, bit for bit.
func checkDotPairs(t testing.TB, rows, g, grads0 []float32, n, d int) {
	t.Helper()
	pairs := n * (n - 1) / 2
	want, wantGrads := make([]float32, pairs), append([]float32(nil), grads0...)
	withKernels(false, func() {
		dotPairsOracle(want, rows, n, d)
		dotPairsBackwardOracle(wantGrads, rows, g, n, d)
	})
	for _, vec := range []bool{false, true} {
		got, gotGrads := make([]float32, pairs), append([]float32(nil), grads0...)
		withKernels(vec, func() {
			DotPairs(got, rows, n, d)
			DotPairsBackward(gotGrads, rows, g, n, d)
		})
		if i := sameBits(got, want); i >= 0 {
			t.Fatalf("DotPairs n=%d d=%d vector=%v: pair %d = %v, oracle %v", n, d, vec, i, got[i], want[i])
		}
		if i := sameBits(gotGrads, wantGrads); i >= 0 {
			t.Fatalf("DotPairsBackward n=%d d=%d vector=%v: row %d element %d = %v, oracle %v",
				n, d, vec, i/d, i%d, gotGrads[i], wantGrads[i])
		}
	}
}

// FuzzDotPairs decodes a row count, a width, the rows, the upstream
// gradients (about one in four forced to +0 or -0) and the gradients'
// starting values from the input and checks both kernels, both paths,
// against the oracles.
func FuzzDotPairs(f *testing.F) {
	f.Add([]byte{9, 64, 0, 0, 128, 63, 0, 0, 0, 192})
	f.Add([]byte{3, 33, 1, 0, 0, 0, 0, 0, 128, 127, 0, 0, 0, 128})
	f.Add([]byte{2, 3, 0, 0, 128, 255, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		n, d := int(in[0])%11, int(in[1])%70
		vals := fuzzFloats(in[2:], 2*n*d+n*n)
		rows, grads0, g := vals[:n*d], vals[n*d:2*n*d], vals[2*n*d:2*n*d+max(n*(n-1)/2, 0)]
		for k := range g {
			switch in[(k+2)%len(in)] % 8 {
			case 0:
				g[k] = 0
			case 1:
				g[k] = float32(math.Copysign(0, -1))
			}
		}
		checkDotPairs(t, rows, g, grads0, n, d)
	})
}

// TestPooledMatMulTransBZeroAlloc holds the packed dX kernel to zero
// allocations per call at steady state on the pool, where the panel is
// packed into the recycled job's buffer. It counts with ReadMemStats, as
// TestFanOutStepZeroAlloc does, because testing.AllocsPerRun pins
// GOMAXPROCS to 1, where the call stays on the serial path; like that
// test it divides by the call count, so one stray allocation by the
// runtime during the window does not count against the kernel.
func TestPooledMatMulTransBZeroAlloc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	rng := xrand.New(13)
	a, b, dst := randomMatrix(rng, 64, 512), randomMatrix(rng, 256, 512), New(64, 256)
	if serial(a.Rows, a.Rows*a.Cols*b.Rows) {
		t.Fatal("the dense_heavy dX shape does not reach the pool")
	}
	const warm, runs = 5, 50
	for i := 0; i < warm; i++ {
		MatMulTransB(dst, a, b)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		MatMulTransB(dst, a, b)
	}
	runtime.ReadMemStats(&after)
	if n := (after.Mallocs - before.Mallocs) / runs; n != 0 {
		t.Errorf("pooled MatMulTransB allocates %d objects per call, want 0", n)
	}
}
