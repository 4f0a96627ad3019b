package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// naiveMatMul is the O(n³) reference used to validate the optimized kernels.
func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// matMul computes dst = a·b on the forward kernel the dense layers run:
// MatMulBiasReLU with no bias (and so no ReLU).
func matMul(dst, a, b *Matrix) { MatMulBiasReLU(dst, a, b, nil, false) }

// matMulTransA computes dst = aᵀ·b on the weight-gradient kernel:
// MatMulTransAAcc into a zeroed dst.
func matMulTransA(dst, a, b *Matrix) {
	dst.Zero()
	MatMulTransAAcc(dst, a, b)
}

func randomMatrix(rng *xrand.RNG, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, 1))
	}
	return m
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := xrand.New(1)
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {16, 16, 16}, {33, 17, 9}, {64, 128, 32}}
	for _, s := range shapes {
		a := randomMatrix(rng, s[0], s[1])
		b := randomMatrix(rng, s[1], s[2])
		want := naiveMatMul(a, b)
		got := New(s[0], s[2])
		matMul(got, a, b)
		if !got.Equal(want, 1e-4) {
			t.Errorf("MatMul mismatch for shape %v", s)
		}
	}
}

func TestMatMulParallelLarge(t *testing.T) {
	rng := xrand.New(2)
	// Large enough to cross parallelThreshold.
	a := randomMatrix(rng, 120, 90)
	b := randomMatrix(rng, 90, 70)
	want := naiveMatMul(a, b)
	got := New(120, 70)
	matMul(got, a, b)
	if !got.Equal(want, 1e-3) {
		t.Error("parallel MatMul diverges from naive result")
	}
}

func TestMatMulTransB(t *testing.T) {
	rng := xrand.New(3)
	a := randomMatrix(rng, 12, 7)
	bT := randomMatrix(rng, 9, 7) // b = bTᵀ is 7x9
	b := New(7, 9)
	for i := 0; i < 9; i++ {
		for j := 0; j < 7; j++ {
			b.Set(j, i, bT.At(i, j))
		}
	}
	want := naiveMatMul(a, b)
	got := New(12, 9)
	MatMulTransB(got, a, bT)
	if !got.Equal(want, 1e-4) {
		t.Error("MatMulTransB mismatch")
	}
}

func TestMatMulTransA(t *testing.T) {
	rng := xrand.New(4)
	aT := randomMatrix(rng, 11, 6) // a = aTᵀ is 6x11
	b := randomMatrix(rng, 11, 8)
	a := New(6, 11)
	for i := 0; i < 11; i++ {
		for j := 0; j < 6; j++ {
			a.Set(j, i, aT.At(i, j))
		}
	}
	want := naiveMatMul(a, b)
	got := New(6, 8)
	matMulTransA(got, aT, b)
	if !got.Equal(want, 1e-4) {
		t.Error("MatMulTransA mismatch")
	}
}

func TestMatMulIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		n := 1 + rng.Intn(20)
		a := randomMatrix(rng, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		got := New(n, n)
		matMul(got, a, id)
		return got.Equal(a, 1e-5)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulDistributive(t *testing.T) {
	// a·(b+c) == a·b + a·c
	f := func(seed int64) bool {
		rng := xrand.New(seed)
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomMatrix(rng, m, k)
		b := randomMatrix(rng, k, n)
		c := randomMatrix(rng, k, n)
		bc := b.Clone()
		AddTo(bc.Data, c.Data)
		left := New(m, n)
		matMul(left, a, bc)
		ab := New(m, n)
		ac := New(m, n)
		matMul(ab, a, b)
		matMul(ac, a, c)
		AddTo(ab.Data, ac.Data)
		return left.Equal(ab, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMatMulPanicsOnDimMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	matMul(New(2, 2), New(2, 3), New(2, 2))
}

func TestFromDataPanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromData(2, 3, make([]float32, 5))
}

func TestCloneIsDeep(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestRowIsView(t *testing.T) {
	m := New(3, 4)
	r := m.Row(1)
	r[2] = 7
	if m.At(1, 2) != 7 {
		t.Error("Row should be a view into the matrix")
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float32{1, 2, 3}
	b := []float32{4, 5, 6}
	if d := Dot(a, b); d != 32 {
		t.Errorf("Dot = %v, want 32", d)
	}
	y := []float32{1, 1, 1}
	Axpy(2, a, y)
	want := []float32{3, 5, 7}
	for i := range y {
		if y[i] != want[i] {
			t.Errorf("Axpy[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := xrand.New(5)
	m := New(50, 50)
	XavierInit(m, 50, 50, rng)
	bound := float32(math.Sqrt(6.0 / 100.0))
	for _, v := range m.Data {
		if v < -bound || v > bound {
			t.Fatalf("Xavier value %v outside ±%v", v, bound)
		}
	}
	// Should not be all zeros.
	for _, v := range m.Data {
		if v != 0 {
			return
		}
	}
	t.Error("Xavier init produced all zeros")
}

func TestSigmoid(t *testing.T) {
	if s := Sigmoid(0); math.Abs(float64(s)-0.5) > 1e-6 {
		t.Errorf("Sigmoid(0) = %v", s)
	}
	if s := Sigmoid(100); s < 0.999 {
		t.Errorf("Sigmoid(100) = %v", s)
	}
	if s := Sigmoid(-100); s > 0.001 {
		t.Errorf("Sigmoid(-100) = %v", s)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := xrand.New(1)
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	dst := New(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(dst, x, y)
	}
}

func BenchmarkMatMulNaive128(b *testing.B) {
	rng := xrand.New(1)
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMatMul(x, y)
	}
}
