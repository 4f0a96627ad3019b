package tensor

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/xrand"
)

// Naive O(mnk) reference kernels the tiled/parallel/fused production
// kernels are verified against. naiveMatMul lives in matrix_test.go.

func naiveMatMulTransB(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for p := 0; p < a.Cols; p++ {
				s += a.At(i, p) * b.At(j, p)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveMatMulTransA(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for p := 0; p < a.Rows; p++ {
				s += a.At(p, i) * b.At(p, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func naiveBiasReLU(y *Matrix, bias []float32, relu bool) {
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for j := range row {
			row[j] += bias[j]
			if relu && row[j] < 0 {
				row[j] = 0
			}
		}
	}
}

func randShaped(rng *xrand.RNG, rows, cols int) *Matrix {
	return randomMatrix(rng, rows, cols)
}

// kernelShapes covers the edge geometry called out in the issue: 1×1,
// prime dims, rows smaller than the worker count, single rows/columns,
// and shapes big enough (work > parallelThreshold) to engage the pool.
var kernelShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{1, 17, 1},
	{2, 3, 2},
	{3, 7, 5},
	{13, 1, 31},
	{31, 29, 37},
	{5, 64, 3},
	{2, 300, 300},  // rows < workers, parallel-sized work
	{64, 64, 64},   // parallel-sized
	{40, 257, 129}, // parallel-sized, tile-straddling odd dims
	{97, 256, 32},  // k == tileK boundary
	{33, 512, 65},  // multiple k panels, odd row tile remainder
}

func checkAllKernels(t *testing.T, label string) {
	t.Helper()
	rng := xrand.New(42)
	const eps = 1e-3
	for _, sh := range kernelShapes {
		name := fmt.Sprintf("%s/%dx%dx%d", label, sh.m, sh.k, sh.n)
		a := randShaped(rng, sh.m, sh.k)
		b := randShaped(rng, sh.k, sh.n)
		bT := randShaped(rng, sh.n, sh.k)
		bias := randShaped(rng, 1, sh.n).Data

		dst := New(sh.m, sh.n)
		MatMul(dst, a, b)
		if !dst.Equal(naiveMatMul(a, b), eps) {
			t.Errorf("%s: MatMul differs from naive reference", name)
		}

		for _, relu := range []bool{false, true} {
			MatMulBiasReLU(dst, a, b, bias, relu)
			want := naiveMatMul(a, b)
			naiveBiasReLU(want, bias, relu)
			if !dst.Equal(want, eps) {
				t.Errorf("%s: MatMulBiasReLU(relu=%v) differs from naive reference", name, relu)
			}
		}

		dstT := New(sh.m, sh.n)
		MatMulTransB(dstT, a, bT)
		if !dstT.Equal(naiveMatMulTransB(a, bT), eps) {
			t.Errorf("%s: MatMulTransB differs from naive reference", name)
		}

		// For aᵀ·b the shared dim is the row count: use a as k×m.
		at := randShaped(rng, sh.k, sh.m)
		dstA := New(sh.m, sh.n)
		MatMulTransA(dstA, at, b)
		want := naiveMatMulTransA(at, b)
		if !dstA.Equal(want, eps) {
			t.Errorf("%s: MatMulTransA differs from naive reference", name)
		}

		// Accumulating variant: dst0 + aᵀ·b.
		acc := randShaped(rng, sh.m, sh.n)
		wantAcc := acc.Clone()
		wantAcc.Add(want)
		MatMulTransAAcc(acc, at, b)
		if !acc.Equal(wantAcc, eps) {
			t.Errorf("%s: MatMulTransAAcc differs from naive reference", name)
		}
	}
}

func TestKernelsMatchNaive(t *testing.T) {
	checkAllKernels(t, "default")
}

// TestKernelsMatchNaiveSerial pins GOMAXPROCS=1 so every kernel takes the
// serial path regardless of host parallelism.
func TestKernelsMatchNaiveSerial(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	checkAllKernels(t, "gomaxprocs1")
}

// TestKernelsMatchNaiveParallel raises GOMAXPROCS so the worker pool
// engages even on single-core CI runners.
func TestKernelsMatchNaiveParallel(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	checkAllKernels(t, "gomaxprocs4")
}

// TestKernelsConcurrentCallers hammers the shared worker pool from many
// goroutines at once (as hybrid ranks do) and checks every result.
// MatMulTransB packs b into a buffer on its job, so concurrent callers
// must each get their own.
func TestKernelsConcurrentCallers(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	rng := xrand.New(7)
	a := randShaped(rng, 48, 256)
	b := randShaped(rng, 256, 96)
	bT := randShaped(rng, 96, 256)
	want := naiveMatMul(a, b)
	wantT := New(48, 96)
	MatMulTransB(wantT, a, bT)
	done := make(chan bool)
	const callers = 8
	for c := 0; c < callers; c++ {
		go func() {
			dst, dstT := New(48, 96), New(48, 96)
			for i := 0; i < 20; i++ {
				MatMul(dst, a, b)
				MatMulTransB(dstT, a, bT)
			}
			done <- dst.Equal(want, 1e-3) && dstT.Equal(wantT, 0)
		}()
	}
	for c := 0; c < callers; c++ {
		if !<-done {
			t.Fatal("concurrent MatMul produced a wrong result")
		}
	}
}

func TestReLUGradInto(t *testing.T) {
	y := []float32{-1, 0, 0.5, 2, -0.1}
	dy := []float32{1, 2, 3, 4, 5}
	ReLUGradInto(dy, y)
	want := []float32{0, 0, 3, 4, 0}
	for i := range want {
		if dy[i] != want[i] {
			t.Fatalf("dy = %v, want %v", dy, want)
		}
	}
}

// TestSerialKernelsAllocFree guards the zero-allocation property of the
// serial dispatch path that the Trainer.Step alloc budget depends on.
func TestSerialKernelsAllocFree(t *testing.T) {
	rng := xrand.New(3)
	a := randShaped(rng, 16, 32)
	b := randShaped(rng, 32, 8)
	bias := randShaped(rng, 1, 8).Data
	dst := New(16, 8)
	if avg := testing.AllocsPerRun(20, func() {
		MatMul(dst, a, b)
		MatMulBiasReLU(dst, a, b, bias, true)
	}); avg != 0 {
		t.Errorf("serial kernels allocate %.1f objects per call, want 0", avg)
	}
}

// itemCounter is a Ranger that records how it was called.
type itemCounter struct {
	hits  []atomic.Int32 // per item
	calls atomic.Int32   // RunRange invocations
}

func (c *itemCounter) RunRange(lo, hi int) {
	c.calls.Add(1)
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

// TestParallelRange pins the range job's contract: below the per-item
// threshold, with one item or on one P it is a single inline
// RunRange(0, n); otherwise the pool takes it item by item, and either
// way every item runs exactly once before the call returns.
func TestParallelRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct {
		name           string
		procs, n, work int
		fansOut        bool
	}{
		{"above threshold", 4, 8, parallelThreshold, true},
		{"two items", 2, 2, parallelThreshold, true},
		{"below threshold", 4, 8, parallelThreshold - 1, false},
		{"large total, small items", 4, 64, parallelThreshold / 2, false},
		{"one item", 4, 1, 4 * parallelThreshold, false},
		{"one P", 1, 8, parallelThreshold, false},
		{"nothing", 4, 0, parallelThreshold, false},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := RangeFansOut(c.n, c.work); got != c.fansOut {
			t.Errorf("%s: RangeFansOut = %v, want %v", c.name, got, c.fansOut)
		}
		r := &itemCounter{hits: make([]atomic.Int32, c.n)}
		ParallelRange(r, c.n, c.work)
		wantCalls := 1
		if c.fansOut {
			wantCalls = c.n
		}
		if got := int(r.calls.Load()); got != wantCalls {
			t.Errorf("%s: %d RunRange calls, want %d", c.name, got, wantCalls)
		}
		for i := range r.hits {
			if h := r.hits[i].Load(); h != 1 {
				t.Errorf("%s: item %d ran %d times", c.name, i, h)
			}
		}
	}

}
