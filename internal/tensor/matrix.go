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

// MatMulBiasReLU computes dst = a·b + bias (broadcast over rows), applying
// ReLU in place when relu is true — the fused forward kernel of one dense
// layer. bias must have len b.Cols, or be nil for the plain product
// dst = a·b (relu is then ignored); dst must be m×n and must not alias a
// or b. The epilogue runs on each destination tile while it is still
// cache-resident, replacing the matmul→bias→ReLU triple pass over memory.
func MatMulBiasReLU(dst, a, b *Matrix, bias []float32, relu bool) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU dims (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	if bias != nil && len(bias) != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulBiasReLU bias len %d, want %d", len(bias), b.Cols))
	}
	dispatch(kMatMulBiasReLU, dst, a, b, bias, relu, a.Rows, a.Rows*a.Cols*b.Cols)
}

// Register-blocked micro-kernels. Go's compiler does not auto-vectorize,
// so the scalar loops are shaped for instruction-level parallelism
// instead: axpy2 folds two rank-1 row updates into one pass over the
// destination (halving its load/store traffic), and dot2 computes two
// inner products sharing the left operand's loads across four independent
// accumulator chains. Where the CPU has AVX2, the vector kernels in
// simd_amd64.s compute the same bits as these loops: axpyStrip64 runs a
// whole tileK panel of axpyPanel's quads on each 64-column strip of the
// destination row, held in registers from the first quad to the last;
// the columns past the last strip take axpy2/axpy4, whose 8-aligned
// prefix is vector code (under 8 columns, axpyNarrow's inline loops);
// and MatMulTransB's first n&^7 columns run on a packed 4×8 kernel.

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
// back to pair updates that skip the zero work entirely. The branch
// depends on arow alone, so every column of drow sees the same op
// sequence, and the columns that axpyStrips covers need only the rest.
func axpyPanel(arow []float32, b *Matrix, kk int, drow []float32) {
	j := axpyStrips(arow, b, kk, drow)
	axpyCols(arow, 1, len(arow), b, kk, j, drow)
}

// axpyCols runs axpyPanel's update on columns [j, n) of drow, with the
// panel's np coefficients at coef[p*stride]: a row of a for the forward
// GEMM, a column of a read in place for dW.
func axpyCols(coef []float32, stride, np int, b *Matrix, kk, j int, drow []float32) {
	n := b.Cols
	if j == n {
		return
	}
	// Row kk+p of b, from column j on, is bd[(kk+p)*n:][:w].
	bd, w := b.Data[j:], n-j
	drow = drow[j:]
	if w < 8 {
		axpyNarrow(coef, stride, np, bd, n, kk, drow[:w])
		return
	}
	s2, s3 := 2*stride, 3*stride
	p, q := 0, 0 // q = p*stride
	for ; p+4 <= np; p, q = p+4, q+4*stride {
		a0, a1, a2, a3 := coef[q], coef[q+stride], coef[q+s2], coef[q+s3]
		bi := (kk + p) * n
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			axpy4(a0, bd[bi:bi+w], a1, bd[bi+n:bi+n+w],
				a2, bd[bi+2*n:bi+2*n+w], a3, bd[bi+3*n:bi+3*n+w], drow)
			continue
		}
		axpyPair(a0, bd[bi:bi+w], a1, bd[bi+n:bi+n+w], drow)
		axpyPair(a2, bd[bi+2*n:bi+2*n+w], a3, bd[bi+3*n:bi+3*n+w], drow)
	}
	for ; p < np; p, q = p+1, q+stride {
		if av := coef[q]; av != 0 {
			bi := (kk + p) * n
			Axpy(av, bd[bi:bi+w], drow)
		}
	}
}

// axpyNarrow is axpyCols's update on fewer than 8 columns: y +=
// Σ_p coef[p*stride]·bd[(kk+p)*n:][:len(y)]. Each quad takes axpyPanel's
// branch, and each column gets the expression the axpy4, axpy2 or Axpy
// call would have computed there (under 8 columns those are their Go
// loops alone), in the same order, without a call per quad: at a
// handful of columns the calls cost more than the arithmetic.
func axpyNarrow(coef []float32, stride, np int, bd []float32, n, kk int, y []float32) {
	w, s2, s3 := len(y), 2*stride, 3*stride
	p, q := 0, 0 // q = p*stride
	for ; p+4 <= np; p, q = p+4, q+4*stride {
		a0, a1, a2, a3 := coef[q], coef[q+stride], coef[q+s2], coef[q+s3]
		if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
			bi := (kk + p) * n
			x0 := bd[bi : bi+w]
			x1 := bd[bi+n : bi+n+w]
			x2 := bd[bi+2*n : bi+2*n+w]
			x3 := bd[bi+3*n : bi+3*n+w]
			for c := range y {
				y[c] += a0*x0[c] + a1*x1[c] + a2*x2[c] + a3*x3[c]
			}
			continue
		}
		// axpyPair on each half of the quad.
		for h := 0; h < 4; h += 2 {
			a0, a1 := coef[q+h*stride], coef[q+(h+1)*stride]
			bi := (kk + p + h) * n
			x0, x1 := bd[bi:bi+w], bd[bi+n:bi+n+w]
			switch {
			case a0 == 0 && a1 == 0:
			case a1 == 0:
				axpyNarrow1(a0, x0, y)
			case a0 == 0:
				axpyNarrow1(a1, x1, y)
			default:
				for c := range y {
					y[c] += a0*x0[c] + a1*x1[c]
				}
			}
		}
	}
	for ; p < np; p, q = p+1, q+stride {
		if av := coef[q]; av != 0 {
			bi := (kk + p) * n
			axpyNarrow1(av, bd[bi:bi+w], y)
		}
	}
}

// axpyNarrow1 is Axpy's Go loop, y += a·x, without the call.
func axpyNarrow1(a float32, x, y []float32) {
	x = x[:len(y)]
	for c := range y {
		y[c] += a * x[c]
	}
}

// stripCols is the width of the destination strip axpyStrip64 keeps in
// registers: eight 8-lane vectors.
const stripCols = 64

// axpyStrips runs axpyPanel's update on every full 64-column strip of
// drow, one axpyStrip64 call each: the strip stays in registers across
// the whole panel, and each quad takes axpyPanel's branch for all 64
// columns. It returns the number of columns done, 0 with the vector
// kernels off.
func axpyStrips(arow []float32, b *Matrix, kk int, drow []float32) int {
	n := b.Cols
	j := 0
	if vectorKernels && len(arow) > 0 {
		for ; j+stripCols <= n; j += stripCols {
			axpyStrip64(&drow[j], &arow[0], len(arow), &b.Data[kk*n+j], n)
		}
	}
	return j
}

// matMulBiasReLURange computes rows [r0, r1) of dst = a·b (+ bias, then
// ReLU, when bias is set) with the i-k-j loop order, k blocked in tileK
// panels reused across tileRows-row tiles.
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
				reluRow(drow)
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

// matMulTransAAccRange accumulates rows [r0, r1) of dst += aᵀ·b (rows of
// dst index columns of a), blocking the shared row dimension of a/b in
// tileK panels so the streamed b panel is reused across the output range.
// Row i's coefficients over a panel are column i of a: the vector strips
// read them from a stack copy, the columns past the last strip in place.
func matMulTransAAccRange(dst, a, b *Matrix, r0, r1 int) {
	m := a.Cols
	n := b.Cols
	var col [tileK]float32
	for pp := 0; pp < a.Rows; pp += tileK {
		np := min(tileK, a.Rows-pp)
		for i := r0; i < r1; i++ {
			drow := dst.Data[i*n : (i+1)*n]
			j := 0
			if vectorKernels && n >= stripCols {
				c := col[:np]
				for p := range c {
					c[p] = a.Data[(pp+p)*m+i]
				}
				j = axpyStrips(c, b, pp, drow)
			}
			axpyCols(a.Data[pp*m+i:], m, np, b, pp, j, drow)
		}
	}
}
