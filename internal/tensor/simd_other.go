//go:build !amd64

package tensor

import "unsafe"

// Only amd64 has vector kernels; elsewhere the Go kernels are the one
// path, and these stubs exist so the shared call sites compile.
const vectorCPU = false

func addToVec(dst, src []float32)                                              { panic(noVector) }
func addTo2Vec(dst, src0, src1 []float32)                                      { panic(noVector) }
func axpyVec(alpha float32, x, y []float32)                                    { panic(noVector) }
func axpy2Vec(a0 float32, x0 []float32, a1 float32, x1 []float32, y []float32) { panic(noVector) }
func axpy4Vec(a0 float32, x0 []float32, a1 float32, x1 []float32,
	a2 float32, x2 []float32, a3 float32, x3 []float32, y []float32) {
	panic(noVector)
}
func axpyStrip64(y *float32, a *float32, k int, x *float32, ldx int)              { panic(noVector) }
func reluVec(x []float32)                                                         { panic(noVector) }
func reluGradVec(dy, y []float32)                                                 { panic(noVector) }
func adagradVec(value, grad, acc []float32, lr, eps float32)                      { panic(noVector) }
func transB4x8(dst *float32, ldd int, a *float32, lda int, panel *float32, k int) { panic(noVector) }
func transB1x8(dst *float32, a *float32, panel *float32, k int)                   { panic(noVector) }
func packPanel8(dst *float32, src *float32, ld int, k8 int)                       { panic(noVector) }
func sumSquares8Vec(sums *[8]float32, rows *float32, ld int, k8 int)              { panic(noVector) }
func dotPairsVec(dst *float32, rows *float32, n int, ld int, k4 int)              { panic(noVector) }
func dotPairsBwdVec(grads *float32, rows *float32, up *float32, n int, ld int, c8 int) {
	panic(noVector)
}
func quantizeInt8Vec(dst []byte, src []float32)      { panic(noVector) }
func dequantizeInt8Vec(dst []float32, src []byte)    { panic(noVector) }
func dequantizeAddInt8Vec(dst []float32, src []byte) { panic(noVector) }

// prefetchRows is a hint, so its stub does nothing rather than panic.
func prefetchRows(base unsafe.Pointer, ids *int32, n int, rowBytes int) {}

const noVector = "tensor: vector kernel called on a platform without one"
