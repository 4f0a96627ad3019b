// Package tensor implements the dense float32 linear-algebra kernels that
// the DLRM training stack is built on: matrices, cache-tiled parallel
// matrix multiplication (including transposed variants needed by
// backpropagation), fused bias/activation epilogues, and vector
// primitives. Parallel kernels run on a persistent worker pool (pool.go);
// design rationale is documented in DESIGN.md.
//
// The package is deliberately small and allocation-conscious: every kernel
// writes into a caller-provided destination so the training loop can reuse
// buffers across iterations and a steady-state step allocates nothing.
package tensor

import (
	"fmt"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromData wraps an existing slice as a rows×cols matrix. The slice is not
// copied; len(data) must equal rows*cols.
func FromData(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing storage).
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float32) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// Add accumulates other into m element-wise. Shapes must match.
func (m *Matrix) Add(other *Matrix) {
	m.mustSameShape(other)
	AddTo(m.Data, other.Data)
}

// Sub subtracts other from m element-wise. Shapes must match.
func (m *Matrix) Sub(other *Matrix) {
	m.mustSameShape(other)
	for i, v := range other.Data {
		m.Data[i] -= v
	}
}

// Scale multiplies every element by a.
func (m *Matrix) Scale(a float32) { ScaleVec(m.Data, a) }

// AXPY computes m += a*x element-wise. Shapes must match.
func (m *Matrix) AXPY(a float32, x *Matrix) {
	m.mustSameShape(x)
	Axpy(a, x.Data, m.Data)
}

// Equal reports whether two matrices have identical shape and elements
// within tolerance eps.
func (m *Matrix) Equal(other *Matrix, eps float32) bool {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		return false
	}
	for i, v := range m.Data {
		d := v - other.Data[i]
		if d < 0 {
			d = -d
		}
		if d > eps {
			return false
		}
	}
	return true
}

func (m *Matrix) mustSameShape(other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d",
			m.Rows, m.Cols, other.Rows, other.Cols))
	}
}

// parallelThreshold is the FLOP count above which matmuls fan out across
// the persistent worker pool (pool.go). Below it the hand-off overhead
// exceeds the win.
const parallelThreshold = 1 << 17

// Cache tile sizes (see DESIGN.md). A tileRows×n destination tile plus a
// tileK×n panel of the streamed operand stay resident in L2 while the
// panel is reused across the tile's rows.
const (
	tileRows = 32
	tileK    = 256
)

// MatMul computes dst = a·b where a is m×k and b is k×n. dst must be m×n
// and must not alias a or b.
func MatMul(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMul, dst, a, b, nil, false, a.Rows, a.Rows*a.Cols*b.Cols)
}

// MatMulBiasReLU computes dst = a·b + bias (broadcast over rows), applying
// ReLU in place when relu is true — the fused forward kernel of one dense
// layer. bias must have len b.Cols; dst must be m×n and must not alias a
// or b. The epilogue runs on each destination tile while it is still
// cache-resident, replacing the matmul→bias→ReLU triple pass over memory.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU bias len %d, want %d", len(bias), b.Cols))
	}
	dispatch(kMatMulBiasReLU, dst, a, b, bias, relu, a.Rows, a.Rows*a.Cols*b.Cols)
}

// Register-blocked micro-kernels. Go's compiler does not auto-vectorize,
// so the scalar loops are shaped for instruction-level parallelism
// instead: axpy2 folds two rank-1 row updates into one pass over the
// destination (halving its load/store traffic), and dot2 computes two
// inner products sharing the left operand's loads across four independent
// accumulator chains. Where the CPU has AVX2, the 8-aligned prefix of
// axpy2/axpy4 and MatMulTransB's first n&^7 columns run on the vector
// kernels in simd_amd64.s, which compute the same bits as these loops.

// axpy2 computes y += a0*x0 + a1*x1 in one pass.
func axpy2(a0 float32, x0 []float32, a1 float32, x1 []float32, y []float32) {
	n := min(len(y), min(len(x0), len(x1)))
	x0, x1, y = x0[:n], x1[:n], y[:n]
	i := 0
	if vectorKernels && n >= 8 {
		i = n &^ 7
		axpy2Vec(a0, x0[:i], a1, x1[:i], y[:i])
	}
	for ; i+2 <= n; i += 2 {
		y[i] += a0*x0[i] + a1*x1[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1]
	}
	if i < n {
		y[i] += a0*x0[i] + a1*x1[i]
	}
}

// axpy4 computes y += a0*x0 + a1*x1 + a2*x2 + a3*x3 in one pass: four
// rank-1 updates per destination load/store.
func axpy4(a0 float32, x0 []float32, a1 float32, x1 []float32,
	a2 float32, x2 []float32, a3 float32, x3 []float32, y []float32) {
	n := min(min(len(y), min(len(x0), len(x1))), min(len(x2), len(x3)))
	x0, x1, x2, x3, y = x0[:n], x1[:n], x2[:n], x3[:n], y[:n]
	i := 0
	if vectorKernels && n >= 8 {
		i = n &^ 7
		axpy4Vec(a0, x0[:i], a1, x1[:i], a2, x2[:i], a3, x3[:i], y[:i])
	}
	for ; i+2 <= n; i += 2 {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
		y[i+1] += a0*x0[i+1] + a1*x1[i+1] + a2*x2[i+1] + a3*x3[i+1]
	}
	if i < n {
		y[i] += a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}

// dot4 returns (a·b0, a·b1, a·b2, a·b3) computed in one pass over a:
// eight independent accumulator chains sharing each pair of a loads.
func dot4(a, b0, b1, b2, b3 []float32) (r0, r1, r2, r3 float32) {
	n := min(len(a), min(min(len(b0), len(b1)), min(len(b2), len(b3))))
	a, b0, b1, b2, b3 = a[:n], b0[:n], b1[:n], b2[:n], b3[:n]
	var s00, s01, s10, s11, s20, s21, s30, s31 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		a0, a1 := a[i], a[i+1]
		s00 += a0 * b0[i]
		s01 += a1 * b0[i+1]
		s10 += a0 * b1[i]
		s11 += a1 * b1[i+1]
		s20 += a0 * b2[i]
		s21 += a1 * b2[i+1]
		s30 += a0 * b3[i]
		s31 += a1 * b3[i+1]
	}
	r0, r1, r2, r3 = s00+s01, s10+s11, s20+s21, s30+s31
	if i < n {
		r0 += a[i] * b0[i]
		r1 += a[i] * b1[i]
		r2 += a[i] * b2[i]
		r3 += a[i] * b3[i]
	}
	return
}

// dot2 returns (a·b0, a·b1) computed in one pass over a.
func dot2(a, b0, b1 []float32) (float32, float32) {
	n := min(len(a), min(len(b0), len(b1)))
	a, b0, b1 = a[:n], b0[:n], b1[:n]
	var s00, s01, s10, s11 float32
	i := 0
	for ; i+2 <= n; i += 2 {
		a0, a1 := a[i], a[i+1]
		s00 += a0 * b0[i]
		s01 += a1 * b0[i+1]
		s10 += a0 * b1[i]
		s11 += a1 * b1[i+1]
	}
	r0, r1 := s00+s01, s10+s11
	if i < n {
		r0 += a[i] * b0[i]
		r1 += a[i] * b1[i]
	}
	return r0, r1
}

// axpyPair accumulates drow += a0·x0 + a1·x1, skipping zero coefficients
// (common after ReLU).
func axpyPair(a0 float32, x0 []float32, a1 float32, x1 []float32, drow []float32) {
	switch {
	case a0 == 0 && a1 == 0:
	case a1 == 0:
		Axpy(a0, x0, drow)
	case a0 == 0:
		Axpy(a1, x1, drow)
	default:
		axpy2(a0, x0, a1, x1, drow)
	}
}

// axpyPanel accumulates drow += Σ_p arow[p]·b[row kk+p]. Dense
// coefficient quads go through axpy4 (one destination pass per four
// rank-1 updates); quads containing zeros — the post-ReLU case — fall
// back to pair updates that skip the zero work entirely.
func axpyPanel(arow []float32, b *Matrix, kk int, drow []float32) {
	n := b.Cols
	p := 0
	for ; p+4 <= len(arow); p += 4 {
		a0, a1, a2, a3 := arow[p], arow[p+1], arow[p+2], arow[p+3]
		bi := (kk + p) * n
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			axpy4(a0, b.Data[bi:bi+n], a1, b.Data[bi+n:bi+2*n],
				a2, b.Data[bi+2*n:bi+3*n], a3, b.Data[bi+3*n:bi+4*n], drow)
			continue
		}
		axpyPair(a0, b.Data[bi:bi+n], a1, b.Data[bi+n:bi+2*n], drow)
		axpyPair(a2, b.Data[bi+2*n:bi+3*n], a3, b.Data[bi+3*n:bi+4*n], drow)
	}
	for ; p < len(arow); p++ {
		if av := arow[p]; av != 0 {
			bi := (kk + p) * n
			Axpy(av, b.Data[bi:bi+n], drow)
		}
	}
}

// matMulRange computes rows [r0, r1) of dst = a·b with the i-k-j loop
// order, k blocked in tileK panels reused across tileRows-row tiles.
func matMulRange(dst, a, b *Matrix, r0, r1 int) {
	matMulBiasReLURange(dst, a, b, nil, false, r0, r1)
}

func matMulBiasReLURange(dst, a, b *Matrix, bias []float32, relu bool, r0, r1 int) {
	n := b.Cols
	k := a.Cols
	for ii := r0; ii < r1; ii += tileRows {
		iEnd := min(ii+tileRows, r1)
		for i := ii; i < iEnd; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			for j := range drow {
				drow[j] = 0
			}
		}
		for kk := 0; kk < k; kk += tileK {
			kEnd := min(kk+tileK, k)
			for i := ii; i < iEnd; i++ {
				drow := dst.Data[i*n : (i+1)*n]
				arow := a.Data[i*k+kk : i*k+kEnd]
				axpyPanel(arow, b, kk, drow)
			}
		}
		if bias == nil {
			continue
		}
		// Fused epilogue over the still-hot tile.
		for i := ii; i < iEnd; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			AddTo(drow, bias)
			if relu {
				for j, v := range drow {
					if v < 0 {
						drow[j] = 0
					}
				}
			}
		}
	}
}

// MatMulTransB computes dst = a·bᵀ where a is m×k and b is n×k. dst must
// be m×n. This is the shape backprop needs for input gradients
// (dX = dY·Wᵀ) without materializing the transpose.
func MatMulTransB(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulTransB dims (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMulTransB, dst, a, b, nil, false, a.Rows, a.Rows*a.Cols*b.Rows)
}

// packTransB copies b's first n&^7 rows into panel, grown as needed, as
// k×8 blocks — block q holds columns 8q..8q+7 of dst, with the p-th
// elements of its 8 rows of b adjacent — and returns the packed slice
// (empty when the vector kernels are off or there is nothing to pack).
func packTransB(panel []float32, b *Matrix) []float32 {
	k, n8 := b.Cols, b.Rows&^7
	if !vectorKernels || k == 0 {
		n8 = 0
	}
	if cap(panel) < n8*k {
		panel = make([]float32, n8*k)
	}
	panel = panel[:n8*k]
	k8 := k &^ 7
	for jb := 0; jb < n8; jb += 8 {
		blk := panel[jb*k : (jb+8)*k]
		if k8 > 0 {
			packPanel8(&blk[0], &b.Data[jb*k], k, k8)
		}
		for c := 0; c < 8; c++ {
			for p, v := range b.Data[(jb+c)*k+k8 : (jb+c+1)*k] {
				blk[(k8+p)*8+c] = v
			}
		}
	}
	return panel
}

// matMulTransBRange computes rows [r0, r1) of dst = a·bᵀ. The columns
// packed into panel (packTransB) run on the 4×8 vector kernel, one panel
// block at a time across the range's rows; the rest walk b's rows in
// tileRows panels reused across each tile of a's rows.
func matMulTransBRange(dst, a, b *Matrix, panel []float32, r0, r1 int) {
	k := a.Cols
	n := b.Rows
	n8 := 0
	if len(panel) > 0 {
		n8 = n &^ 7
	}
	for jb := 0; jb < n8; jb += 8 {
		blk := &panel[jb*k]
		i := r0
		for ; i+4 <= r1; i += 4 {
			transB4x8(&dst.Data[i*n+jb], n, &a.Data[i*k], k, blk, k)
		}
		for ; i < r1; i++ {
			transB1x8(&dst.Data[i*n+jb], &a.Data[i*k], blk, k)
		}
	}
	for ii := r0; ii < r1; ii += tileRows {
		iEnd := min(ii+tileRows, r1)
		for jj := n8; jj < n; jj += tileRows {
			jEnd := min(jj+tileRows, n)
			for i := ii; i < iEnd; i++ {
				arow := a.Data[i*k : (i+1)*k]
				drow := dst.Data[i*n : (i+1)*n]
				j := jj
				for ; j+4 <= jEnd; j += 4 {
					drow[j], drow[j+1], drow[j+2], drow[j+3] = dot4(arow,
						b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k],
						b.Data[(j+2)*k:(j+3)*k], b.Data[(j+3)*k:(j+4)*k])
				}
				for ; j+2 <= jEnd; j += 2 {
					drow[j], drow[j+1] = dot2(arow, b.Data[j*k:(j+1)*k], b.Data[(j+1)*k:(j+2)*k])
				}
				if j < jEnd {
					drow[j] = Dot(arow, b.Data[j*k:(j+1)*k])
				}
			}
		}
	}
}

// MatMulTransA computes dst = aᵀ·b where a is k×m and b is k×n. dst must
// be m×n. This is the shape backprop needs for weight gradients
// (dW = Xᵀ·dY).
func MatMulTransA(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransA dims (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMulTransA, dst, a, b, nil, false, a.Cols, a.Rows*a.Cols*b.Cols)
}

// MatMulTransAAcc computes dst += aᵀ·b — the accumulate-fused weight
// gradient kernel. Backprop adds dW = Xᵀ·dY into the running gradient
// directly, eliminating the scratch matrix and the extra add pass.
func MatMulTransAAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulTransAAcc dims (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dispatch(kMatMulTransAAcc, dst, a, b, nil, false, a.Cols, a.Rows*a.Cols*b.Cols)
}

func matMulTransARange(dst, a, b *Matrix, r0, r1 int) {
	n := b.Cols
	for i := r0; i < r1; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	matMulTransAAccRange(dst, a, b, r0, r1)
}

// matMulTransAAccRange accumulates rows [r0, r1) of dst += aᵀ·b (rows of
// dst index columns of a), blocking the shared row dimension of a/b in
// tileK panels so the streamed b panel is reused across the output range.
func matMulTransAAccRange(dst, a, b *Matrix, r0, r1 int) {
	m := a.Cols
	n := b.Cols
	for pp := 0; pp < a.Rows; pp += tileK {
		pEnd := min(pp+tileK, a.Rows)
		for i := r0; i < r1; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			p := pp
			for ; p+4 <= pEnd; p += 4 {
				av0 := a.Data[p*m+i]
				av1 := a.Data[(p+1)*m+i]
				av2 := a.Data[(p+2)*m+i]
				av3 := a.Data[(p+3)*m+i]
				if av0 != 0 && av1 != 0 && av2 != 0 && av3 != 0 {
					axpy4(av0, b.Data[p*n:(p+1)*n], av1, b.Data[(p+1)*n:(p+2)*n],
						av2, b.Data[(p+2)*n:(p+3)*n], av3, b.Data[(p+3)*n:(p+4)*n], drow)
					continue
				}
				axpyPair(av0, b.Data[p*n:(p+1)*n], av1, b.Data[(p+1)*n:(p+2)*n], drow)
				axpyPair(av2, b.Data[(p+2)*n:(p+3)*n], av3, b.Data[(p+3)*n:(p+4)*n], drow)
			}
			for ; p < pEnd; p++ {
				if av := a.Data[p*m+i]; av != 0 {
					Axpy(av, b.Data[p*n:(p+1)*n], drow)
				}
			}
		}
	}
}
