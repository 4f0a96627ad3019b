#include "textflag.h"

// AVX2 kernels behind the element-wise and dX kernels (simd_amd64.go).
// Each lane of a Y register carries one output element through exactly
// the multiply and add sequence the Go loop applies to it, rounded after
// every operation (VMULPS, VADDPS, VSUBPS, VDIVPS, VSQRTPS; no FMA), so
// the results are bit-identical to the Go kernels. The element-wise
// kernels process len(dst)/8 blocks of 8; their callers pass slices cut
// to a multiple of 8 with every source at least as long as dst.

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// func addToVec(dst, src []float32)
TEXT ·addToVec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $3, CX
	JZ   addto_done

addto_loop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	DECQ    CX
	JNZ     addto_loop

addto_done:
	VZEROUPPER
	RET

// func addTo2Vec(dst, src0, src1 []float32)
// dst += (src0 + src1)
TEXT ·addTo2Vec(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src0_base+24(FP), SI
	MOVQ src1_base+48(FP), DX
	SHRQ $3, CX
	JZ   addto2_done

addto2_loop:
	VMOVUPS (SI), Y0
	VADDPS  (DX), Y0, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	DECQ    CX
	JNZ     addto2_loop

addto2_done:
	VZEROUPPER
	RET

// func axpyVec(alpha float32, x, y []float32)
// y += alpha*x
TEXT ·axpyVec(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	SHRQ         $3, CX
	JZ           axpy_done

axpy_loop:
	VMULPS  (SI), Y0, Y1
	VADDPS  (DI), Y1, Y1
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpy_loop

axpy_done:
	VZEROUPPER
	RET

// func axpy2Vec(a0 float32, x0 []float32, a1 float32, x1 []float32, y []float32)
// y += (a0*x0 + a1*x1)
TEXT ·axpy2Vec(SB), NOSPLIT, $0-88
	VBROADCASTSS a0+0(FP), Y0
	MOVQ         x0_base+8(FP), SI
	VBROADCASTSS a1+32(FP), Y1
	MOVQ         x1_base+40(FP), DX
	MOVQ         y_base+64(FP), DI
	MOVQ         y_len+72(FP), CX
	SHRQ         $3, CX
	JZ           axpy2_done

axpy2_loop:
	VMULPS  (SI), Y0, Y2
	VMULPS  (DX), Y1, Y3
	VADDPS  Y3, Y2, Y2
	VADDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpy2_loop

axpy2_done:
	VZEROUPPER
	RET

// func axpy4Vec(a0 float32, x0 []float32, a1 float32, x1 []float32, a2 float32, x2 []float32, a3 float32, x3 []float32, y []float32)
// y += (((a0*x0 + a1*x1) + a2*x2) + a3*x3)
TEXT ·axpy4Vec(SB), NOSPLIT, $0-152
	VBROADCASTSS a0+0(FP), Y0
	MOVQ         x0_base+8(FP), SI
	VBROADCASTSS a1+32(FP), Y1
	MOVQ         x1_base+40(FP), DX
	VBROADCASTSS a2+64(FP), Y2
	MOVQ         x2_base+72(FP), R8
	VBROADCASTSS a3+96(FP), Y3
	MOVQ         x3_base+104(FP), R9
	MOVQ         y_base+128(FP), DI
	MOVQ         y_len+136(FP), CX
	SHRQ         $3, CX
	JZ           axpy4_done

axpy4_loop:
	VMULPS  (SI), Y0, Y4
	VMULPS  (DX), Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R8), Y2, Y5
	VADDPS  Y5, Y4, Y4
	VMULPS  (R9), Y3, Y5
	VADDPS  Y5, Y4, Y4
	VADDPS  (DI), Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpy4_loop

axpy4_done:
	VZEROUPPER
	RET

// func adagradVec(value, grad, acc []float32, lr, eps float32)
// acc += g*g; value -= (lr*g) / (sqrt(acc) + eps)
TEXT ·adagradVec(SB), NOSPLIT, $0-80
	MOVQ         value_base+0(FP), DI
	MOVQ         value_len+8(FP), CX
	MOVQ         grad_base+24(FP), SI
	MOVQ         acc_base+48(FP), DX
	VBROADCASTSS lr+72(FP), Y0
	VBROADCASTSS eps+76(FP), Y1
	SHRQ         $3, CX
	JZ           adagrad_done

adagrad_loop:
	VMOVUPS (SI), Y2
	VMULPS  Y2, Y2, Y3
	VADDPS  (DX), Y3, Y3
	VMOVUPS Y3, (DX)
	VSQRTPS Y3, Y3
	VADDPS  Y1, Y3, Y3
	VMULPS  Y0, Y2, Y2
	VDIVPS  Y3, Y2, Y2
	VMOVUPS (DI), Y4
	VSUBPS  Y2, Y4, Y4
	VMOVUPS Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     adagrad_loop

adagrad_done:
	VZEROUPPER
	RET

// func transB4x8(dst *float32, ldd int, a *float32, lda int, panel *float32, k int)
//
// dst[r][c] = a[r]·b[c] for 4 rows r of a (stride lda) and the 8 columns
// c of one packed panel (k×8: the 8 columns' p-th elements are adjacent).
// Like dot4, each output keeps an even-p and an odd-p chain, adds them,
// then adds the last product when k is odd. k must be at least 1.
TEXT ·transB4x8(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ ldd+8(FP), R8
	MOVQ a+16(FP), SI
	MOVQ lda+24(FP), R9
	MOVQ panel+32(FP), DX
	MOVQ k+40(FP), CX
	SHLQ $2, R8
	SHLQ $2, R9
	LEAQ (SI)(R9*1), R10
	LEAQ (R10)(R9*1), R11
	LEAQ (R11)(R9*1), R12

	// Y0-Y3: even-p chains of rows 0-3; Y4-Y7: odd-p chains.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	XORQ   AX, AX
	MOVQ   CX, BX
	SHRQ   $1, BX
	JZ     tb4_sum

tb4_pairs:
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (SI)(AX*1), Y10
	VBROADCASTSS 4(SI)(AX*1), Y11
	VBROADCASTSS (R10)(AX*1), Y12
	VBROADCASTSS 4(R10)(AX*1), Y13
	VMULPS       Y8, Y10, Y10
	VMULPS       Y9, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VMULPS       Y9, Y13, Y13
	VADDPS       Y10, Y0, Y0
	VADDPS       Y11, Y4, Y4
	VADDPS       Y12, Y1, Y1
	VADDPS       Y13, Y5, Y5
	VBROADCASTSS (R11)(AX*1), Y10
	VBROADCASTSS 4(R11)(AX*1), Y11
	VBROADCASTSS (R12)(AX*1), Y12
	VBROADCASTSS 4(R12)(AX*1), Y13
	VMULPS       Y8, Y10, Y10
	VMULPS       Y9, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VMULPS       Y9, Y13, Y13
	VADDPS       Y10, Y2, Y2
	VADDPS       Y11, Y6, Y6
	VADDPS       Y12, Y3, Y3
	VADDPS       Y13, Y7, Y7
	ADDQ         $64, DX
	ADDQ         $8, AX
	DECQ         BX
	JNZ          tb4_pairs

tb4_sum:
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	TESTQ  $1, CX
	JZ     tb4_store
	VMOVUPS      (DX), Y8
	VBROADCASTSS (SI)(AX*1), Y10
	VBROADCASTSS (R10)(AX*1), Y11
	VBROADCASTSS (R11)(AX*1), Y12
	VBROADCASTSS (R12)(AX*1), Y13
	VMULPS       Y8, Y10, Y10
	VMULPS       Y8, Y11, Y11
	VMULPS       Y8, Y12, Y12
	VMULPS       Y8, Y13, Y13
	VADDPS       Y10, Y0, Y0
	VADDPS       Y11, Y1, Y1
	VADDPS       Y12, Y2, Y2
	VADDPS       Y13, Y3, Y3

tb4_store:
	VMOVUPS Y0, (DI)
	ADDQ    R8, DI
	VMOVUPS Y1, (DI)
	ADDQ    R8, DI
	VMOVUPS Y2, (DI)
	ADDQ    R8, DI
	VMOVUPS Y3, (DI)
	VZEROUPPER
	RET

// func transB1x8(dst *float32, a *float32, panel *float32, k int)
//
// One row of transB4x8, for the rows left over after the groups of 4.
TEXT ·transB1x8(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   a+8(FP), SI
	MOVQ   panel+16(FP), DX
	MOVQ   k+24(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	XORQ   AX, AX
	MOVQ   CX, BX
	SHRQ   $1, BX
	JZ     tb1_sum

tb1_pairs:
	VBROADCASTSS (SI)(AX*1), Y10
	VBROADCASTSS 4(SI)(AX*1), Y11
	VMULPS       (DX), Y10, Y10
	VMULPS       32(DX), Y11, Y11
	VADDPS       Y10, Y0, Y0
	VADDPS       Y11, Y4, Y4
	ADDQ         $64, DX
	ADDQ         $8, AX
	DECQ         BX
	JNZ          tb1_pairs

tb1_sum:
	VADDPS Y4, Y0, Y0
	TESTQ  $1, CX
	JZ     tb1_store
	VBROADCASTSS (SI)(AX*1), Y10
	VMULPS       (DX), Y10, Y10
	VADDPS       Y10, Y0, Y0

tb1_store:
	VMOVUPS Y0, (DI)
	VZEROUPPER
	RET

// func packPanel8(dst *float32, src *float32, ld int, k8 int)
//
// Transposes 8 rows of src (stride ld) into dst as k8×8: dst[p*8+c] =
// src[c*ld+p] for c < 8 and p < k8, k8 a multiple of 8. A copy, one 8×8
// block per iteration.
TEXT ·packPanel8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ ld+16(FP), R8
	MOVQ k8+24(FP), CX
	SHLQ $2, R8
	LEAQ (SI)(R8*4), R9
	LEAQ (R8)(R8*2), R10
	SHRQ $3, CX
	JZ   pack_done

pack_loop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(R8*1), Y5
	VMOVUPS (R9)(R8*2), Y6
	VMOVUPS (R9)(R10*1), Y7

	// Interleave row pairs, then gather 4-row columns within each
	// 128-bit lane, then join the lanes of rows 0-3 and rows 4-7.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y15

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0x44, Y15, Y13, Y6
	VSHUFPS $0xEE, Y15, Y13, Y7

	VPERM2F128 $0x20, Y4, Y0, Y8
	VPERM2F128 $0x20, Y5, Y1, Y9
	VPERM2F128 $0x20, Y6, Y2, Y10
	VPERM2F128 $0x20, Y7, Y3, Y11
	VPERM2F128 $0x31, Y4, Y0, Y12
	VPERM2F128 $0x31, Y5, Y1, Y13
	VPERM2F128 $0x31, Y6, Y2, Y14
	VPERM2F128 $0x31, Y7, Y3, Y15

	VMOVUPS Y8, (DI)
	VMOVUPS Y9, 32(DI)
	VMOVUPS Y10, 64(DI)
	VMOVUPS Y11, 96(DI)
	VMOVUPS Y12, 128(DI)
	VMOVUPS Y13, 160(DI)
	VMOVUPS Y14, 192(DI)
	VMOVUPS Y15, 224(DI)

	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $256, DI
	DECQ CX
	JNZ  pack_loop

pack_done:
	VZEROUPPER
	RET

// func sumSquares8Vec(sums *[8]float32, rows *float32, ld int, k8 int)
//
// sums[r] = Σ rows[r*ld+p]² over p < k8 for the 8 rows r (stride ld),
// one row per lane and its chain in element order, as the one-row Go
// loop adds them. Each 8×8 block is squared, transposed as packPanel8
// transposes, and its 8 columns are added to the sums in order. k8 is a
// positive multiple of 8.
TEXT ·sumSquares8Vec(SB), NOSPLIT, $0-32
	MOVQ   sums+0(FP), DI
	MOVQ   rows+8(FP), SI
	MOVQ   ld+16(FP), R8
	MOVQ   k8+24(FP), CX
	SHLQ   $2, R8
	LEAQ   (SI)(R8*4), R9
	LEAQ   (R8)(R8*2), R10
	VXORPS Y15, Y15, Y15
	SHRQ   $3, CX
	JZ     ss8_store

ss8_loop:
	VMOVUPS (SI), Y0
	VMOVUPS (SI)(R8*1), Y1
	VMOVUPS (SI)(R8*2), Y2
	VMOVUPS (SI)(R10*1), Y3
	VMOVUPS (R9), Y4
	VMOVUPS (R9)(R8*1), Y5
	VMOVUPS (R9)(R8*2), Y6
	VMOVUPS (R9)(R10*1), Y7
	VMULPS  Y0, Y0, Y0
	VMULPS  Y1, Y1, Y1
	VMULPS  Y2, Y2, Y2
	VMULPS  Y3, Y3, Y3
	VMULPS  Y4, Y4, Y4
	VMULPS  Y5, Y5, Y5
	VMULPS  Y6, Y6, Y6
	VMULPS  Y7, Y7, Y7

	// packPanel8's transpose, with Y6 standing in for its Y15, which
	// holds the sums here.
	VUNPCKLPS Y1, Y0, Y8
	VUNPCKHPS Y1, Y0, Y9
	VUNPCKLPS Y3, Y2, Y10
	VUNPCKHPS Y3, Y2, Y11
	VUNPCKLPS Y5, Y4, Y12
	VUNPCKHPS Y5, Y4, Y13
	VUNPCKLPS Y7, Y6, Y14
	VUNPCKHPS Y7, Y6, Y6

	VSHUFPS $0x44, Y10, Y8, Y0
	VSHUFPS $0xEE, Y10, Y8, Y1
	VSHUFPS $0x44, Y11, Y9, Y2
	VSHUFPS $0xEE, Y11, Y9, Y3
	VSHUFPS $0x44, Y14, Y12, Y4
	VSHUFPS $0xEE, Y14, Y12, Y5
	VSHUFPS $0xEE, Y6, Y13, Y7
	VSHUFPS $0x44, Y6, Y13, Y6

	// Columns 0-7 of the block, each added as soon as it is formed.
	VPERM2F128 $0x20, Y4, Y0, Y8
	VADDPS     Y8, Y15, Y15
	VPERM2F128 $0x20, Y5, Y1, Y9
	VADDPS     Y9, Y15, Y15
	VPERM2F128 $0x20, Y6, Y2, Y10
	VADDPS     Y10, Y15, Y15
	VPERM2F128 $0x20, Y7, Y3, Y11
	VADDPS     Y11, Y15, Y15
	VPERM2F128 $0x31, Y4, Y0, Y12
	VADDPS     Y12, Y15, Y15
	VPERM2F128 $0x31, Y5, Y1, Y13
	VADDPS     Y13, Y15, Y15
	VPERM2F128 $0x31, Y6, Y2, Y14
	VADDPS     Y14, Y15, Y15
	VPERM2F128 $0x31, Y7, Y3, Y8
	VADDPS     Y8, Y15, Y15

	ADDQ $32, SI
	ADDQ $32, R9
	DECQ CX
	JNZ  ss8_loop

ss8_store:
	VMOVUPS Y15, (DI)
	VZEROUPPER
	RET

// func dotPairsVec(dst *float32, rows *float32, n int, ld int, k4 int)
//
// dst[k] = rows[i]·rows[j] over the first k4 elements for every pair
// i < j of the n rows (stride ld), k counting pairs in lexicographic
// order, as Dot computes it before its tail: four chains over p ≡ 0..3
// (mod 4), combined as (s0+s1)+(s2+s3) by two horizontal adds. One
// pair's four chains fill a 128-bit lane, so a Y accumulator carries two
// pairs. Row i's pairs go eight at a time (four accumulators, to cover
// the add latency), then four, two and one. n is at least 2 and k4 a
// positive multiple of 4.
TEXT ·dotPairsVec(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ n+16(FP), R9
	MOVQ ld+24(FP), R8
	MOVQ k4+32(FP), CX
	SHLQ $2, R8
	LEAQ (R8)(R8*2), R11  // 3 rows
	LEAQ (R8)(R8*4), R12  // 5 rows
	LEAQ (R11)(R8*4), R10 // 7 rows
	SHRQ $2, CX
	DECQ R9               // pairs of row 0; rows left with pairs

dp_row:
	LEAQ (SI)(R8*1), DX // rows[i+1]
	MOVQ R9, BX

dp_group8:
	CMPQ   BX, $8
	JLT    dp_group4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R13
	MOVQ   DX, R14
	MOVQ   CX, AX

dp8_loop:
	VBROADCASTF128 (R13), Y4
	VMOVUPS        (R14), X5
	VINSERTF128    $1, (R14)(R8*1), Y5, Y5
	VMOVUPS        (R14)(R8*2), X6
	VINSERTF128    $1, (R14)(R11*1), Y6, Y6
	VMOVUPS        (R14)(R8*4), X7
	VINSERTF128    $1, (R14)(R12*1), Y7, Y7
	VMOVUPS        (R14)(R11*2), X8
	VINSERTF128    $1, (R14)(R10*1), Y8, Y8
	VMULPS         Y4, Y5, Y5
	VMULPS         Y4, Y6, Y6
	VMULPS         Y4, Y7, Y7
	VMULPS         Y4, Y8, Y8
	VADDPS         Y5, Y0, Y0
	VADDPS         Y6, Y1, Y1
	VADDPS         Y7, Y2, Y2
	VADDPS         Y8, Y3, Y3
	ADDQ           $16, R13
	ADDQ           $16, R14
	DECQ           AX
	JNZ            dp8_loop

	// Y0..Y3 hold pairs (0,1), (2,3), (4,5), (6,7) of the group, low
	// lane first. The first adds give each pair's (s0+s1, s2+s3), the
	// next its total: pairs 0,2,4,6 in the low lane, 1,3,5,7 in the high.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y3, Y2, Y2
	VHADDPS      Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VUNPCKLPS    X1, X0, X2
	VUNPCKHPS    X1, X0, X3
	VMOVUPS      X2, (DI)
	VMOVUPS      X3, 16(DI)
	ADDQ         $32, DI
	LEAQ         (DX)(R8*8), DX
	SUBQ         $8, BX
	JMP          dp_group8

dp_group4:
	CMPQ   BX, $4
	JLT    dp_group2
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ   SI, R13
	MOVQ   DX, R14
	MOVQ   CX, AX

dp4_loop:
	VBROADCASTF128 (R13), Y4
	VMOVUPS        (R14), X5
	VINSERTF128    $1, (R14)(R8*1), Y5, Y5
	VMOVUPS        (R14)(R8*2), X6
	VINSERTF128    $1, (R14)(R11*1), Y6, Y6
	VMULPS         Y4, Y5, Y5
	VMULPS         Y4, Y6, Y6
	VADDPS         Y5, Y0, Y0
	VADDPS         Y6, Y1, Y1
	ADDQ           $16, R13
	ADDQ           $16, R14
	DECQ           AX
	JNZ            dp4_loop

	// Pairs 0,2 in the low lane, 1,3 in the high one, each total twice.
	VHADDPS      Y1, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VUNPCKLPS    X1, X0, X2
	VMOVUPS      X2, (DI)
	ADDQ         $16, DI
	LEAQ         (DX)(R8*4), DX
	SUBQ         $4, BX

dp_group2:
	CMPQ   BX, $2
	JLT    dp_group1
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R13
	MOVQ   DX, R14
	MOVQ   CX, AX

dp2_loop:
	VBROADCASTF128 (R13), Y4
	VMOVUPS        (R14), X5
	VINSERTF128    $1, (R14)(R8*1), Y5, Y5
	VMULPS         Y4, Y5, Y5
	VADDPS         Y5, Y0, Y0
	ADDQ           $16, R13
	ADDQ           $16, R14
	DECQ           AX
	JNZ            dp2_loop

	VHADDPS      Y0, Y0, Y0
	VHADDPS      Y0, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMOVSS       X0, (DI)
	VMOVSS       X1, 4(DI)
	ADDQ         $8, DI
	LEAQ         (DX)(R8*2), DX
	SUBQ         $2, BX

dp_group1:
	TESTQ  BX, BX
	JZ     dp_next
	VXORPS X0, X0, X0
	MOVQ   SI, R13
	MOVQ   CX, AX

dp1_loop:
	VMOVUPS (R13), X4
	VMULPS  (DX), X4, X4
	VADDPS  X4, X0, X0
	ADDQ    $16, R13
	ADDQ    $16, DX
	DECQ    AX
	JNZ     dp1_loop

	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VMOVSS  X0, (DI)
	ADDQ    $4, DI

dp_next:
	ADDQ R8, SI
	DECQ R9
	JNZ  dp_row

	VZEROUPPER
	RET

// func dotPairsBwdVec(grads *float32, rows *float32, up *float32, n int, ld int, c8 int)
//
// For the first c8 columns of the n rows (stride ld) of rows and grads:
// for each pair i < j in lexicographic order whose up[k] is not ±0,
// grads[i] += up[k]·rows[j] and grads[j] += up[k]·rows[i], each product
// rounded before its add, as Axpy does. Columns are independent, so the
// kernel walks windows of 32 columns (then 8) and runs every pair over
// one window before the next. Within a window, row i's gradient and
// values stay in registers across row i's pairs; its gradient has by
// then received the adds of all earlier rows' pairs through memory. n is
// at least 2 and c8 a positive multiple of 8.
TEXT ·dotPairsBwdVec(SB), NOSPLIT, $0-48
	MOVQ grads+0(FP), DI
	MOVQ rows+8(FP), SI
	MOVQ up+16(FP), DX
	MOVQ n+24(FP), R8
	MOVQ ld+32(FP), R9
	MOVQ c8+40(FP), CX
	SHLQ $2, R9
	SHRQ $3, CX

bwd_window4:
	CMPQ CX, $4
	JLT  bwd_window1
	MOVQ DX, R10 // up[k]
	MOVQ DI, R11 // grads row i
	MOVQ SI, R12 // rows row i
	MOVQ R8, BX  // rows i..n-1

bwd4_row:
	VMOVUPS (R11), Y0
	VMOVUPS 32(R11), Y1
	VMOVUPS 64(R11), Y2
	VMOVUPS 96(R11), Y3
	VMOVUPS (R12), Y4
	VMOVUPS 32(R12), Y5
	VMOVUPS 64(R12), Y6
	VMOVUPS 96(R12), Y7
	MOVQ    R11, R13 // grads row j
	MOVQ    R12, R14 // rows row j
	MOVQ    BX, AX
	DECQ    AX
	JZ      bwd4_store

bwd4_pair:
	ADDQ         R9, R13
	ADDQ         R9, R14
	TESTL        $0x7fffffff, (R10)
	JZ           bwd4_skip
	VBROADCASTSS (R10), Y8
	VMULPS       (R14), Y8, Y9
	VMULPS       32(R14), Y8, Y10
	VMULPS       64(R14), Y8, Y11
	VMULPS       96(R14), Y8, Y12
	VADDPS       Y9, Y0, Y0
	VADDPS       Y10, Y1, Y1
	VADDPS       Y11, Y2, Y2
	VADDPS       Y12, Y3, Y3
	VMULPS       Y4, Y8, Y9
	VMULPS       Y5, Y8, Y10
	VMULPS       Y6, Y8, Y11
	VMULPS       Y7, Y8, Y12
	VADDPS       (R13), Y9, Y9
	VADDPS       32(R13), Y10, Y10
	VADDPS       64(R13), Y11, Y11
	VADDPS       96(R13), Y12, Y12
	VMOVUPS      Y9, (R13)
	VMOVUPS      Y10, 32(R13)
	VMOVUPS      Y11, 64(R13)
	VMOVUPS      Y12, 96(R13)

bwd4_skip:
	ADDQ $4, R10
	DECQ AX
	JNZ  bwd4_pair

bwd4_store:
	VMOVUPS Y0, (R11)
	VMOVUPS Y1, 32(R11)
	VMOVUPS Y2, 64(R11)
	VMOVUPS Y3, 96(R11)
	ADDQ    R9, R11
	ADDQ    R9, R12
	DECQ    BX
	JNZ     bwd4_row

	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $4, CX
	JMP  bwd_window4

bwd_window1:
	TESTQ CX, CX
	JZ    bwd_done
	MOVQ  DX, R10
	MOVQ  DI, R11
	MOVQ  SI, R12
	MOVQ  R8, BX

bwd1_row:
	VMOVUPS (R11), Y0
	VMOVUPS (R12), Y1
	MOVQ    R11, R13
	MOVQ    R12, R14
	MOVQ    BX, AX
	DECQ    AX
	JZ      bwd1_store

bwd1_pair:
	ADDQ         R9, R13
	ADDQ         R9, R14
	TESTL        $0x7fffffff, (R10)
	JZ           bwd1_skip
	VBROADCASTSS (R10), Y2
	VMULPS       (R14), Y2, Y3
	VADDPS       Y3, Y0, Y0
	VMULPS       Y1, Y2, Y4
	VADDPS       (R13), Y4, Y4
	VMOVUPS      Y4, (R13)

bwd1_skip:
	ADDQ $4, R10
	DECQ AX
	JNZ  bwd1_pair

bwd1_store:
	VMOVUPS Y0, (R11)
	ADDQ    R9, R11
	ADDQ    R9, R12
	DECQ    BX
	JNZ     bwd1_row

	ADDQ $32, DI
	ADDQ $32, SI
	DECQ CX
	JMP  bwd_window1

bwd_done:
	VZEROUPPER
	RET

// The int8 block codec (int8.go) over whole 64-element chunks: each
// chunk is 4 bytes of float32 scale, then 64 int8s. Callers pass
// len(src) (quantize) or len(dst) (dequantize) a multiple of 64 and the
// other slice exactly 68 bytes per chunk.

// func quantizeInt8Vec(dst []byte, src []float32)
TEXT ·quantizeInt8Vec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $6, CX
	JZ   q8_done

	MOVL         $0x7fffffff, AX
	VMOVD        AX, X15
	VPBROADCASTD X15, Y15            // |v| mask; its complement is the sign bit
	MOVL         $0x3f000000, AX
	VMOVD        AX, X14
	VPBROADCASTD X14, Y14            // 0.5
	MOVL         $0x42fe0000, AX
	VMOVD        AX, X13             // 127.0
	MOVL         $0x3f800000, AX
	VMOVD        AX, X12             // 1.0
	MOVL         $-127, AX
	VMOVD        AX, X10
	VPBROADCASTD X10, Y10            // int32 -127
	MOVQ         $0x0703060205010400, AX
	VMOVQ        AX, X9
	VPMOVZXBD    X9, Y9              // dword order that undoes the packs' lane split
	VXORPS       Y8, Y8, Y8

q8_loop:
	// max|v| with NaNs skipped. VMAXPS returns its second source when
	// either source is NaN, so the running maximum is always the second
	// source: seeded from 0, it never becomes NaN and a NaN lane leaves
	// it unchanged, as `a > maxAbs` does. Max is exact, so the order the
	// lanes are combined in does not matter.
	VANDPS 0(SI), Y15, Y0
	VANDPS 32(SI), Y15, Y1
	VANDPS 64(SI), Y15, Y2
	VANDPS 96(SI), Y15, Y3
	VANDPS 128(SI), Y15, Y4
	VANDPS 160(SI), Y15, Y5
	VANDPS 192(SI), Y15, Y6
	VANDPS 224(SI), Y15, Y7
	VMAXPS Y8, Y0, Y0
	VMAXPS Y8, Y1, Y1
	VMAXPS Y8, Y2, Y2
	VMAXPS Y8, Y3, Y3
	VMAXPS Y0, Y4, Y0
	VMAXPS Y1, Y5, Y1
	VMAXPS Y2, Y6, Y2
	VMAXPS Y3, Y7, Y3
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X1, X0, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X1, X0, X0

	// scale = max/127; inv = 1/scale when scale > 0, else 0. The scale
	// is never negative or NaN, so it is +0 exactly when its bits are 0.
	VDIVSS X13, X0, X1
	VMOVSS X1, (DI)
	VXORPS X7, X7, X7
	VMOVD  X1, AX
	TESTL  AX, AX
	JZ     q8_inv
	VDIVSS X1, X12, X7

q8_inv:
	VBROADCASTSS X7, Y7
	MOVQ         $2, DX

q8_half:
	// 32 elements: q = int32(v*inv + (0.5 with the product's sign)),
	// truncated, raised to at least -127, then packed to bytes in order;
	// the packs' signed saturation is the clamp at +127.
	VMULPS     0(SI), Y7, Y0
	VANDNPS    Y0, Y15, Y4
	VORPS      Y14, Y4, Y4
	VADDPS     Y4, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPMAXSD    Y10, Y0, Y0
	VMULPS     32(SI), Y7, Y1
	VANDNPS    Y1, Y15, Y4
	VORPS      Y14, Y4, Y4
	VADDPS     Y4, Y1, Y1
	VCVTTPS2DQ Y1, Y1
	VPMAXSD    Y10, Y1, Y1
	VMULPS     64(SI), Y7, Y2
	VANDNPS    Y2, Y15, Y4
	VORPS      Y14, Y4, Y4
	VADDPS     Y4, Y2, Y2
	VCVTTPS2DQ Y2, Y2
	VPMAXSD    Y10, Y2, Y2
	VMULPS     96(SI), Y7, Y3
	VANDNPS    Y3, Y15, Y4
	VORPS      Y14, Y4, Y4
	VADDPS     Y4, Y3, Y3
	VCVTTPS2DQ Y3, Y3
	VPMAXSD    Y10, Y3, Y3
	VPACKSSDW  Y1, Y0, Y0
	VPACKSSDW  Y3, Y2, Y2
	VPACKSSWB  Y2, Y0, Y0
	VPERMD     Y0, Y9, Y0
	VMOVDQU    Y0, 4(DI)
	ADDQ       $128, SI
	ADDQ       $32, DI
	DECQ       DX
	JNZ        q8_half

	ADDQ $4, DI
	DECQ CX
	JNZ  q8_loop

q8_done:
	VZEROUPPER
	RET

// func dequantizeInt8Vec(dst []float32, src []byte)
// dst = q*scale
TEXT ·dequantizeInt8Vec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX
	JZ   dq8_done

dq8_loop:
	VBROADCASTSS (SI), Y8
	VPMOVSXBD    4(SI), Y0
	VPMOVSXBD    12(SI), Y1
	VPMOVSXBD    20(SI), Y2
	VPMOVSXBD    28(SI), Y3
	VPMOVSXBD    36(SI), Y4
	VPMOVSXBD    44(SI), Y5
	VPMOVSXBD    52(SI), Y6
	VPMOVSXBD    60(SI), Y7
	VCVTDQ2PS    Y0, Y0
	VCVTDQ2PS    Y1, Y1
	VCVTDQ2PS    Y2, Y2
	VCVTDQ2PS    Y3, Y3
	VCVTDQ2PS    Y4, Y4
	VCVTDQ2PS    Y5, Y5
	VCVTDQ2PS    Y6, Y6
	VCVTDQ2PS    Y7, Y7
	VMULPS       Y8, Y0, Y0
	VMULPS       Y8, Y1, Y1
	VMULPS       Y8, Y2, Y2
	VMULPS       Y8, Y3, Y3
	VMULPS       Y8, Y4, Y4
	VMULPS       Y8, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y8, Y7, Y7
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VMOVUPS      Y4, 128(DI)
	VMOVUPS      Y5, 160(DI)
	VMOVUPS      Y6, 192(DI)
	VMOVUPS      Y7, 224(DI)
	ADDQ         $68, SI
	ADDQ         $256, DI
	DECQ         CX
	JNZ          dq8_loop

dq8_done:
	VZEROUPPER
	RET

// func dequantizeAddInt8Vec(dst []float32, src []byte)
// dst += q*scale
TEXT ·dequantizeAddInt8Vec(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	SHRQ $6, CX
	JZ   dqa8_done

dqa8_loop:
	VBROADCASTSS (SI), Y8
	VPMOVSXBD    4(SI), Y0
	VPMOVSXBD    12(SI), Y1
	VPMOVSXBD    20(SI), Y2
	VPMOVSXBD    28(SI), Y3
	VPMOVSXBD    36(SI), Y4
	VPMOVSXBD    44(SI), Y5
	VPMOVSXBD    52(SI), Y6
	VPMOVSXBD    60(SI), Y7
	VCVTDQ2PS    Y0, Y0
	VCVTDQ2PS    Y1, Y1
	VCVTDQ2PS    Y2, Y2
	VCVTDQ2PS    Y3, Y3
	VCVTDQ2PS    Y4, Y4
	VCVTDQ2PS    Y5, Y5
	VCVTDQ2PS    Y6, Y6
	VCVTDQ2PS    Y7, Y7
	VMULPS       Y8, Y0, Y0
	VMULPS       Y8, Y1, Y1
	VMULPS       Y8, Y2, Y2
	VMULPS       Y8, Y3, Y3
	VMULPS       Y8, Y4, Y4
	VMULPS       Y8, Y5, Y5
	VMULPS       Y8, Y6, Y6
	VMULPS       Y8, Y7, Y7
	VADDPS       0(DI), Y0, Y0
	VADDPS       32(DI), Y1, Y1
	VADDPS       64(DI), Y2, Y2
	VADDPS       96(DI), Y3, Y3
	VADDPS       128(DI), Y4, Y4
	VADDPS       160(DI), Y5, Y5
	VADDPS       192(DI), Y6, Y6
	VADDPS       224(DI), Y7, Y7
	VMOVUPS      Y0, 0(DI)
	VMOVUPS      Y1, 32(DI)
	VMOVUPS      Y2, 64(DI)
	VMOVUPS      Y3, 96(DI)
	VMOVUPS      Y4, 128(DI)
	VMOVUPS      Y5, 160(DI)
	VMOVUPS      Y6, 192(DI)
	VMOVUPS      Y7, 224(DI)
	ADDQ         $68, SI
	ADDQ         $256, DI
	DECQ         CX
	JNZ          dqa8_loop

dqa8_done:
	VZEROUPPER
	RET
