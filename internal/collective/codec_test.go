package collective

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// encodeInt8Reference is the int8 encoder as it was first written, with
// a branch for the sign in the max-abs pass and in the rounding. It is
// the oracle the branch-free and vector encoders must match byte for
// byte.
func encodeInt8Reference(src []float32) []byte {
	const chunkLen = 64
	dst := make([]byte, 0, wireBytes(WireINT8, len(src)))
	for base := 0; base < len(src); base += chunkLen {
		end := base + chunkLen
		if end > len(src) {
			end = len(src)
		}
		chunk := src[base:end]
		var maxAbs float32
		for _, v := range chunk {
			a := v
			if a < 0 {
				a = -a
			}
			if a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(scale))
		var inv float32
		if scale > 0 {
			inv = 1 / scale
		}
		for _, v := range chunk {
			f := v * inv
			var q int32
			if f >= 0 { // round half away from zero: deterministic, symmetric
				q = int32(f + 0.5)
			} else {
				q = int32(f - 0.5)
			}
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			dst = append(dst, byte(int8(q)))
		}
	}
	return dst
}

// decodeInt8Reference is the scalar int8 decode loop: dst[i] = q·scale,
// or dst[i] += q·scale with accum.
func decodeInt8Reference(dst []float32, src []byte, accum bool) {
	for base := 0; base < len(dst); base += 64 {
		end := min(base+64, len(dst))
		scale := math.Float32frombits(binary.LittleEndian.Uint32(src))
		src = src[4:]
		for i := base; i < end; i++ {
			v := float32(int8(src[i-base])) * scale
			if accum {
				dst[i] += v
			} else {
				dst[i] = v
			}
		}
		src = src[end-base:]
	}
}

// withVector runs f with the tensor vector kernels on or off (they stay
// off on a CPU without them).
func withVector(on bool, f func()) {
	defer tensor.SetVectorKernels(tensor.SetVectorKernels(on))
	f()
}

// sameFloats returns the first index where got and want differ in their
// bits, or -1; two NaNs match whatever their payloads.
func sameFloats(got, want []float32) int {
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

// specials are the inputs whose encoding depends on exactly how the
// codec compares, rounds and converts: signed zeros, subnormals, ±Inf,
// NaNs of both signs (quiet and signalling), and magnitudes near the top
// of the float32 range.
var specials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(1),
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
	math.Float32frombits(0x7f800001), math.Float32frombits(0xff812345),
	3e38, -3e38, math.MaxFloat32, 1e-38, -1e-38, 0.5, -0.5,
}

// fillInt8Case fills x with one of the payload shapes the int8 codec
// must encode exactly: normal draws salted with specials, all-zero
// chunks, chunks with one nonzero element, chunks of subnormals (a zero
// scale, or one whose inverse overflows to +Inf), and huge magnitudes.
func fillInt8Case(rng *xrand.RNG, mode int, x []float32) {
	pick := func() float32 { return specials[rng.Intn(len(specials))] }
	hot := rng.Intn(64)
	for i := range x {
		switch mode {
		case 0:
			if rng.Intn(8) == 0 {
				x[i] = pick()
			} else {
				x[i] = float32(rng.NormMS(0, 1))
			}
		case 1:
			x[i] = float32(math.Copysign(0, float64(rng.Intn(2)-1)))
		case 2:
			x[i] = float32(math.Copysign(0, float64(rng.Intn(2)-1)))
			if i%64 == hot {
				if rng.Intn(2) == 0 {
					x[i] = pick()
				} else {
					x[i] = float32(rng.NormMS(0, 1))
				}
			}
		case 3:
			x[i] = math.Float32frombits(uint32(rng.Intn(1<<uint(1+rng.Intn(23)))) | uint32(rng.Intn(2))<<31)
		default:
			x[i] = float32(rng.NormMS(0, 1)) * 1e38
			if rng.Intn(16) == 0 {
				x[i] = pick()
			}
		}
	}
}

// TestInt8CodecMatchesReference holds the int8 codec, with the vector
// kernels off and on, to the reference encoder byte for byte and to the
// scalar decode loops bit for bit, over lengths 0-300 (short chunks,
// whole chunks and both) at every slice offset 0-7, so no load or store
// is aligned by accident.
func TestInt8CodecMatchesReference(t *testing.T) {
	rng := xrand.New(21)
	const maxN = 300
	src := make([]float32, maxN+8)
	acc := make([]float32, maxN+8)
	got := make([]float32, maxN+8)
	want := make([]float32, maxN+8)
	buf := make([]byte, 8+wireBytes(WireINT8, maxN))
	for mode := 0; mode < 5; mode++ {
		for n := 0; n <= maxN; n++ {
			for off := 0; off < 8; off++ {
				fillInt8Case(rng, mode, src)
				fillInt8Case(rng, 0, acc)
				in := src[off : off+n]
				ref := encodeInt8Reference(in)
				for _, on := range []bool{false, true} {
					var enc []byte
					withVector(on, func() { enc = encodeWire(WireINT8, buf[:off], in)[off:] })
					if string(enc) != string(ref) {
						for i := range ref {
							if enc[i] != ref[i] {
								t.Fatalf("vector=%v mode %d n=%d off=%d: byte %d = %#x, reference %#x",
									on, mode, n, off, i, enc[i], ref[i])
							}
						}
					}
					for _, accum := range []bool{false, true} {
						d := (off + 5) % 8
						copy(got, acc)
						copy(want, acc)
						decodeInt8Reference(want[d:d+n], ref, accum)
						withVector(on, func() {
							if accum {
								decodeAccumWire(WireINT8, got[d:d+n], enc)
							} else {
								decodeWire(WireINT8, got[d:d+n], enc)
							}
						})
						if i := sameFloats(got, want); i >= 0 {
							t.Fatalf("vector=%v accum=%v mode %d n=%d off=%d: element %d = %v, scalar loop %v",
								on, accum, mode, n, off, i-d, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// FuzzWireCodec runs every compressed wire format over float32 bit
// patterns taken from the input: encode, decode and decode-accumulate
// must not panic, the encoding must be wireBytes long, the vector and
// generic paths must agree bit for bit, and int8 must match its
// reference encoder and round-trip every finite element to within half
// its chunk's scale (plus float rounding).
func FuzzWireCodec(f *testing.F) {
	seed := func(vals ...float32) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
		}
		return b
	}
	f.Add(seed(1, -2, 0.5))
	f.Add(seed(specials...))
	long := make([]float32, 150)
	rng := xrand.New(22)
	for mode := 0; mode < 5; mode++ {
		fillInt8Case(rng, mode, long)
		f.Add(seed(long...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		src := make([]float32, len(in)/4)
		for i := range src {
			src[i] = math.Float32frombits(binary.LittleEndian.Uint32(in[4*i:]))
		}
		for _, w := range wireFormats() {
			var enc [2][]byte
			var dec, acc [2][]float32
			for k, on := range []bool{false, true} {
				withVector(on, func() {
					enc[k] = encodeWire(w, nil, src)
					dec[k] = make([]float32, len(src))
					decodeWire(w, dec[k], enc[k])
					acc[k] = append([]float32(nil), src...)
					decodeAccumWire(w, acc[k], enc[k])
				})
			}
			if len(enc[0]) != wireBytes(w, len(src)) {
				t.Fatalf("%v: %d elements encode to %dB, want %dB", w, len(src), len(enc[0]), wireBytes(w, len(src)))
			}
			if string(enc[0]) != string(enc[1]) {
				t.Fatalf("%v: vector and generic encodings differ", w)
			}
			if i := sameFloats(dec[1], dec[0]); i >= 0 {
				t.Fatalf("%v decode element %d: vector %v, generic %v", w, i, dec[1][i], dec[0][i])
			}
			if i := sameFloats(acc[1], acc[0]); i >= 0 {
				t.Fatalf("%v decode-accumulate element %d: vector %v, generic %v", w, i, acc[1][i], acc[0][i])
			}
			if w == WireINT8 {
				if string(enc[0]) != string(encodeInt8Reference(src)) {
					t.Fatal("int8 encoding differs from the reference encoder")
				}
				checkInt8RoundTrip(t, src, enc[0], dec[0])
			}
		}
	})
}

// checkInt8RoundTrip requires every finite element of src to decode to
// within half its chunk's scale. The slack covers float rounding: the
// product v·inv and the rounding add can move q by ~2e-5 of a step, the
// decode product adds 2^-24 relative, and a subnormal scale is off from
// max/127 by up to half a subnormal ulp, which the clamp to ±127 can
// multiply by 127. Chunks whose scale is +Inf, or so small that 1/scale
// overflows, carry no usable scale and are skipped, and so is an element
// whose q·scale lies beyond the float32 range (a chunk max within
// 127·2^-24 of MaxFloat32 can decode its largest elements to ±Inf).
func checkInt8RoundTrip(t *testing.T, src []float32, enc []byte, dec []float32) {
	t.Helper()
	for base := 0; base < len(src); base += 64 {
		scale := math.Float32frombits(binary.LittleEndian.Uint32(enc))
		end := min(base+64, len(src))
		chunk := enc
		enc = enc[4+end-base:]
		if math.IsInf(float64(scale), 0) || (scale > 0 && math.IsInf(float64(1/scale), 0)) {
			continue
		}
		tol := float64(scale)*(0.5+3e-5) + 1e-43
		for i := base; i < end; i++ {
			v := float64(src[i])
			exact := float64(int8(chunk[4+i-base])) * float64(scale)
			if math.IsInf(v, 0) || math.IsNaN(v) || math.Abs(exact) > math.MaxFloat32 {
				continue
			}
			if e := math.Abs(float64(dec[i]) - v); !(e <= tol) {
				t.Fatalf("int8 element %d: %v decodes to %v, off by %v > %v (scale %v)", i, src[i], dec[i], e, tol, scale)
			}
		}
	}
}
