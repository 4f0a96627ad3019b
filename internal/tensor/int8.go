package tensor

import (
	"encoding/binary"
	"math"
)

// Int8ChunkLen is the number of elements that share one scale in the
// int8 block format: each chunk is a 4-byte little-endian float32
// scale (the chunk's max |v| / 127) followed by one int8 per element.
const Int8ChunkLen = 64

// Int8Bytes returns the encoded size of n elements in the int8 block
// format (a short last chunk still carries a whole scale).
func Int8Bytes(n int) int {
	return n + 4*((n+Int8ChunkLen-1)/Int8ChunkLen)
}

// QuantizeInt8 encodes src into dst in the int8 block format: per chunk,
// scale = max|v| / 127 (NaNs skipped), then q = v·(1/scale) rounded half
// away from zero and clamped to ±127 (a zero scale encodes every
// element with inv = 0). dst must be Int8Bytes(len(src)) bytes.
//
// The loop is branch-free per element: |v| clears the sign bit, the
// rounding adds 0.5 carrying f's sign, and the clamp is min/max. That
// gives the bytes of the sign-comparing form for every input: adding
// -0.5 is subtracting 0.5, -0 goes through -0.5 to the 0 that +0 gets
// through 0.5, and NaN or out-of-range sums convert to the same int32
// whichever half was added. The explicit float32 conversion of v*inv
// keeps the compiler from fusing it with the rounding add.
func QuantizeInt8(dst []byte, src []float32) {
	if vectorKernels && len(src) >= Int8ChunkLen {
		n := len(src) &^ (Int8ChunkLen - 1)
		m := Int8Bytes(n)
		quantizeInt8Vec(dst[:m], src[:n])
		dst, src = dst[m:], src[n:]
	}
	for len(src) > 0 {
		chunk := src[:min(len(src), Int8ChunkLen)]
		src = src[len(chunk):]
		var maxAbs float32
		for _, v := range chunk {
			if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		binary.LittleEndian.PutUint32(dst, math.Float32bits(scale))
		var inv float32
		if scale > 0 {
			inv = 1 / scale
		}
		out := dst[4 : 4+len(chunk)]
		dst = dst[4+len(chunk):]
		for i, v := range chunk {
			f := float32(v * inv)
			h := math.Float32frombits(math.Float32bits(f)&(1<<31) | math.Float32bits(0.5))
			out[i] = byte(int8(max(-127, min(127, int32(f+h)))))
		}
	}
}

// DequantizeInt8 decodes src, the int8 block encoding of len(dst)
// elements, into dst: dst[i] = q·scale.
func DequantizeInt8(dst []float32, src []byte) {
	if vectorKernels && len(dst) >= Int8ChunkLen {
		n := len(dst) &^ (Int8ChunkLen - 1)
		m := Int8Bytes(n)
		dequantizeInt8Vec(dst[:n], src[:m])
		dst, src = dst[n:], src[m:]
	}
	for len(dst) > 0 {
		out := dst[:min(len(dst), Int8ChunkLen)]
		scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
		q := src[4 : 4+len(out)]
		for i, b := range q {
			out[i] = float32(int8(b)) * scale
		}
		dst, src = dst[len(out):], src[4+len(out):]
	}
}

// DequantizeAddInt8 is DequantizeInt8 accumulating into dst:
// dst[i] += q·scale.
func DequantizeAddInt8(dst []float32, src []byte) {
	if vectorKernels && len(dst) >= Int8ChunkLen {
		n := len(dst) &^ (Int8ChunkLen - 1)
		m := Int8Bytes(n)
		dequantizeAddInt8Vec(dst[:n], src[:m])
		dst, src = dst[n:], src[m:]
	}
	for len(dst) > 0 {
		out := dst[:min(len(dst), Int8ChunkLen)]
		scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
		q := src[4 : 4+len(out)]
		for i, b := range q {
			out[i] += float32(int8(b)) * scale
		}
		dst, src = dst[len(out):], src[4+len(out):]
	}
}
