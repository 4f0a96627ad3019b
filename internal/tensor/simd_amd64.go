package tensor

import "unsafe"

// vectorCPU reports whether this CPU runs the AVX2 kernels in
// simd_amd64.s: CPUID must list AVX and AVX2, and the OS must save the
// YMM registers across context switches (OSXSAVE, then XCR0 bits 1-2).
var vectorCPU = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

//go:noescape
func addToVec(dst, src []float32)

//go:noescape
func addTo2Vec(dst, src0, src1 []float32)

//go:noescape
func axpyVec(alpha float32, x, y []float32)

//go:noescape
func axpy2Vec(a0 float32, x0 []float32, a1 float32, x1 []float32, y []float32)

//go:noescape
func axpy4Vec(a0 float32, x0 []float32, a1 float32, x1 []float32,
	a2 float32, x2 []float32, a3 float32, x3 []float32, y []float32)

//go:noescape
func axpyStrip64(y *float32, a *float32, k int, x *float32, ldx int)

//go:noescape
func reluVec(x []float32)

//go:noescape
func reluGradVec(dy, y []float32)

//go:noescape
func adagradVec(value, grad, acc []float32, lr, eps float32)

//go:noescape
func transB4x8(dst *float32, ldd int, a *float32, lda int, panel *float32, k int)

//go:noescape
func transB1x8(dst *float32, a *float32, panel *float32, k int)

//go:noescape
func packPanel8(dst *float32, src *float32, ld int, k8 int)

//go:noescape
func sumSquares8Vec(sums *[8]float32, rows *float32, ld int, k8 int)

//go:noescape
func dotPairsVec(dst *float32, rows *float32, n int, ld int, k4 int)

//go:noescape
func dotPairsBwdVec(grads *float32, rows *float32, up *float32, n int, ld int, c8 int)

//go:noescape
func quantizeInt8Vec(dst []byte, src []float32)

//go:noescape
func dequantizeInt8Vec(dst []float32, src []byte)

//go:noescape
func dequantizeAddInt8Vec(dst []float32, src []byte)

//go:noescape
func prefetchRows(base unsafe.Pointer, ids *int32, n int, rowBytes int)
