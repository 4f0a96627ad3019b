package tensor

import (
	"math"

	"repro/internal/xrand"
)

// Dot returns the inner product of a and b. Lengths must match; the
// shorter-slice bound is taken to keep the hot loop branch-free, so
// callers are expected to pass equal lengths.
//
// The loop runs four independent accumulator chains: a single-accumulator
// float32 dot is serialized on the ~4-cycle add latency, which caps it at
// a quarter of the core's multiply-add throughput.
func Dot(a, b []float32) float32 {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// vectorKernels selects the AVX2 kernels (simd_amd64.s) for the 8-aligned
// prefix of the element-wise kernels, for MatMulTransB's packed columns,
// for AdagradStep, SumSquaresRows and the dot-interaction pair kernels,
// and for the int8 codec. It is on wherever the CPU has them. Both settings
// compute the same bits: the Go loops are the reference the vector
// kernels are tested against, and the only path on other CPUs.
var vectorKernels = vectorCPU

// SetVectorKernels turns the vector kernels on or off and returns the
// previous setting; on a CPU without them they stay off. Results do not
// depend on it: it lets tests run the Go kernels the vector ones are
// checked against. It must not be called while a kernel runs.
func SetVectorKernels(on bool) (was bool) {
	was, vectorKernels = vectorKernels, on && vectorCPU
	return was
}

// Axpy computes y += alpha*x element-wise, unrolled 4× to amortize loop
// and bounds-check overhead (iterations are independent, so no extra
// accumulators are needed).
func Axpy(alpha float32, x, y []float32) {
	if len(x) > len(y) {
		x = x[:len(y)]
	}
	y = y[:len(x)]
	i := 0
	if vectorKernels && len(x) >= 8 {
		i = len(x) &^ 7
		axpyVec(alpha, x[:i], y[:i])
	}
	for ; i+4 <= len(x); i += 4 {
		y[i] += alpha * x[i]
		y[i+1] += alpha * x[i+1]
		y[i+2] += alpha * x[i+2]
		y[i+3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

// AddTo computes dst += src element-wise, unrolled like Axpy.
func AddTo(dst, src []float32) {
	if len(src) > len(dst) {
		src = src[:len(dst)]
	}
	dst = dst[:len(src)]
	i := 0
	if vectorKernels && len(src) >= 8 {
		i = len(src) &^ 7
		addToVec(dst[:i], src[:i])
	}
	for ; i+4 <= len(src); i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < len(src); i++ {
		dst[i] += src[i]
	}
}

// ReLUGradInto masks the upstream gradient dy in place by the forward
// activation y: dy[i] is zeroed wherever y[i] <= 0. This is the fused
// backward kernel of a ReLU dense layer — one pass instead of a separate
// mask materialization. Lengths must match; the shorter bound is taken.
// The vector kernel masks with a compare instead of a branch, which on
// a ReLU layer's activations is taken at random.
func ReLUGradInto(dy, y []float32) {
	if len(y) > len(dy) {
		y = y[:len(dy)]
	}
	dy = dy[:len(y)]
	i := 0
	if vectorKernels && len(y) >= 8 {
		i = len(y) &^ 7
		reluGradVec(dy[:i], y[:i])
	}
	for ; i < len(y); i++ {
		if y[i] <= 0 {
			dy[i] = 0
		}
	}
}

// reluRow zeroes the negative elements of x in place, keeping -0 and NaN,
// like ReLUGradInto with a compare where the vector kernels run.
func reluRow(x []float32) {
	i := 0
	if vectorKernels && len(x) >= 8 {
		i = len(x) &^ 7
		reluVec(x[:i])
	}
	for ; i < len(x); i++ {
		if x[i] < 0 {
			x[i] = 0
		}
	}
}

// AddTo2 computes dst += src0 + src1 in one pass, halving destination
// load/store traffic versus two AddTo calls (used by pooled embedding
// lookups).
func AddTo2(dst, src0, src1 []float32) {
	n := len(dst)
	if len(src0) < n {
		n = len(src0)
	}
	if len(src1) < n {
		n = len(src1)
	}
	dst, src0, src1 = dst[:n], src0[:n], src1[:n]
	i := 0
	if vectorKernels && n >= 8 {
		i = n &^ 7
		addTo2Vec(dst[:i], src0[:i], src1[:i])
	}
	for ; i+2 <= n; i += 2 {
		dst[i] += src0[i] + src1[i]
		dst[i+1] += src0[i+1] + src1[i+1]
	}
	if i < n {
		dst[i] += src0[i] + src1[i]
	}
}

// AdagradStep applies one diagonal AdaGrad update element-wise:
// acc += g², then value -= lr·g / (√acc + eps). Lengths must match; the
// shortest bound is taken.
func AdagradStep(value, grad, acc []float32, lr, eps float32) {
	n := min(len(value), len(grad), len(acc))
	value, grad, acc = value[:n], grad[:n], acc[:n]
	i := 0
	if vectorKernels && n >= 8 {
		i = n &^ 7
		adagradVec(value[:i], grad[:i], acc[:i], lr, eps)
	}
	for ; i < n; i++ {
		g := grad[i]
		acc[i] += g * g
		value[i] -= lr * g / (float32(math.Sqrt(float64(acc[i]))) + eps)
	}
}

// SumSquaresRows sets sums[r] to the sum of squares of row r of rows:
// len(sums) rows of length dim, stored back to back. Each sum is one
// chain in element order, the bits of `for _, v := range row { s += v * v }`.
// Rows go eight at a time — one per lane of the vector kernel, or one per
// interleaved chain of the Go loop — so eight chains are in flight where
// a row-at-a-time loop has one.
func SumSquaresRows(sums, rows []float32, dim int) {
	rows = rows[:len(sums)*dim]
	r := 0
	for ; r+8 <= len(sums); r += 8 {
		blk := rows[r*dim : (r+8)*dim]
		s := (*[8]float32)(sums[r : r+8])
		p := 0
		if vectorKernels && dim >= 8 {
			p = dim &^ 7
			sumSquares8Vec(s, &blk[0], dim, p)
		} else {
			*s = [8]float32{}
		}
		sumSquares8(s, blk, dim, p)
	}
	for ; r < len(sums); r++ {
		var sq float32
		for _, v := range rows[r*dim : (r+1)*dim] {
			sq += v * v
		}
		sums[r] = sq
	}
}

// sumSquares8 continues the eight rows' chains in sums from element from
// to the end of the rows, one interleaved chain per row.
func sumSquares8(sums *[8]float32, rows []float32, dim, from int) {
	r0 := rows[from:dim]
	r1 := rows[dim+from : 2*dim][:len(r0)]
	r2 := rows[2*dim+from : 3*dim][:len(r0)]
	r3 := rows[3*dim+from : 4*dim][:len(r0)]
	r4 := rows[4*dim+from : 5*dim][:len(r0)]
	r5 := rows[5*dim+from : 6*dim][:len(r0)]
	r6 := rows[6*dim+from : 7*dim][:len(r0)]
	r7 := rows[7*dim+from : 8*dim][:len(r0)]
	s0, s1, s2, s3 := sums[0], sums[1], sums[2], sums[3]
	s4, s5, s6, s7 := sums[4], sums[5], sums[6], sums[7]
	for p, v := range r0 {
		s0 += v * v
		v = r1[p]
		s1 += v * v
		v = r2[p]
		s2 += v * v
		v = r3[p]
		s3 += v * v
		v = r4[p]
		s4 += v * v
		v = r5[p]
		s5 += v * v
		v = r6[p]
		s6 += v * v
		v = r7[p]
		s7 += v * v
	}
	*sums = [8]float32{s0, s1, s2, s3, s4, s5, s6, s7}
}

// XavierInit fills m with Xavier/Glorot-uniform values appropriate for a
// layer with the given fan-in and fan-out.
func XavierInit(m *Matrix, fanIn, fanOut int, rng *xrand.RNG) {
	UniformInit(m, float32(math.Sqrt(6.0/float64(fanIn+fanOut))), rng)
}

// UniformInit fills m with uniform values in [-bound, bound], each
// (2*rng.Float32()-1)*bound in row-major order, drawn by rng's fused fill.
func UniformInit(m *Matrix, bound float32, rng *xrand.RNG) {
	rng.FillUniform(m.Data, bound)
}

// NormalInit fills m with N(0, std²) values.
func NormalInit(m *Matrix, std float64, rng *xrand.RNG) {
	for i := range m.Data {
		m.Data[i] = float32(rng.NormMS(0, std))
	}
}

// Sigmoid returns 1/(1+exp(-x)) computed in float64 for stability.
func Sigmoid(x float32) float32 {
	return float32(1.0 / (1.0 + math.Exp(-float64(x))))
}
