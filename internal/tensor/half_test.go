package tensor

import (
	"math"
	"testing"
)

// refF32ToFP16 is an independent reference built on float64 arithmetic
// (exact for every float32 input scaled by powers of two) and
// math.RoundToEven. NaN inputs are excluded; the payload policy is
// pinned separately in TestFP16NaN.
func refF32ToFP16(f float32) uint16 {
	var sign uint16
	d := float64(f)
	if math.Signbit(d) {
		sign = 0x8000
		d = -d
	}
	if d >= 65520 { // includes +Inf
		return sign | 0x7c00
	}
	if d < math.Ldexp(1, -14) {
		q := math.RoundToEven(math.Ldexp(d, 24))
		return sign | uint16(q)
	}
	fr, exp := math.Frexp(d)
	q := int(math.RoundToEven(fr * 2048))
	if q == 2048 {
		q = 1024
		exp++
	}
	return sign | uint16(exp-1+15)<<10 | uint16(q-1024)
}

// refF32ToBF16 mirrors refF32ToFP16 for the bfloat16 layout.
func refF32ToBF16(f float32) uint16 {
	var sign uint16
	d := float64(f)
	if math.Signbit(d) {
		sign = 0x8000
		d = -d
	}
	if math.IsInf(d, 0) {
		return sign | 0x7f80
	}
	if d < math.Ldexp(1, -126) {
		q := math.RoundToEven(math.Ldexp(d, 133))
		return sign | uint16(q)
	}
	fr, exp := math.Frexp(d)
	q := int(math.RoundToEven(fr * 256))
	if q == 256 {
		q = 128
		exp++
	}
	if exp-1 > 127 {
		return sign | 0x7f80
	}
	return sign | uint16(exp-1+127)<<7 | uint16(q-128)
}

// FuzzParseDType: the -precision.tables parser returns an error rather
// than panics, and a dtype it accepts parses back from its own String().
func FuzzParseDType(f *testing.F) {
	for _, s := range []string{"", "fp32", "float32", "bf16", "bfloat16", "fp16", "float16", "half", "FP16", "dtype(3)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		d, err := ParseDType(s)
		if err != nil {
			return
		}
		if again, err := ParseDType(d.String()); err != nil || again != d {
			t.Fatalf("%q parses to %v, whose String() parses to %v (%v)", s, d, again, err)
		}
	})
}

// Every one of the 2^16 bf16 bit patterns — including every NaN
// payload — must survive bf16 -> fp32 -> bf16 bit-identically.
func TestBF16ExhaustiveRoundTrip(t *testing.T) {
	for u := 0; u <= 0xffff; u++ {
		got := F32ToBF16(BF16ToF32(uint16(u)))
		if got != uint16(u) {
			t.Fatalf("bf16 round trip: %#04x -> %v -> %#04x", u, BF16ToF32(uint16(u)), got)
		}
	}
}

func TestFP16ExhaustiveRoundTrip(t *testing.T) {
	for u := 0; u <= 0xffff; u++ {
		got := F32ToFP16(FP16ToF32(uint16(u)))
		if got != uint16(u) {
			t.Fatalf("fp16 round trip: %#04x -> %v -> %#04x", u, FP16ToF32(uint16(u)), got)
		}
	}
}

// FP16ToF32 must agree with the IEEE 754 binary16 value formula for all
// 2^16 patterns (subnormals, ±Inf, NaN class).
func TestFP16DecodeExhaustive(t *testing.T) {
	for u := 0; u <= 0xffff; u++ {
		e := (u >> 10) & 0x1f
		m := u & 0x3ff
		sign := 1.0
		if u&0x8000 != 0 {
			sign = -1
		}
		f := FP16ToF32(uint16(u))
		if e == 0x1f && m != 0 {
			if f == f {
				t.Fatalf("fp16 %#04x should decode to NaN, got %v", u, f)
			}
			continue
		}
		var want float64
		switch {
		case e == 0x1f:
			want = math.Inf(int(sign))
		case e == 0:
			want = sign * math.Ldexp(float64(m), -24)
		default:
			want = sign * (1 + float64(m)/1024) * math.Ldexp(1, e-15)
		}
		if float64(f) != want || (f == 0 && math.Signbit(float64(f)) != math.Signbit(want)) {
			t.Fatalf("fp16 decode %#04x = %v, want %v", u, f, want)
		}
	}
}

// Sweep every fp32 high half-word crossed with low-word patterns around
// the rounding boundaries; both narrowing kernels must match the
// float64 references exactly (math.Float32bits-level comparison).
func TestNarrowingMatchesReference(t *testing.T) {
	lows := []uint32{0x0000, 0x0001, 0x0fff, 0x1000, 0x1001, 0x2000, 0x7fff, 0x8000, 0xffff}
	for hi := 0; hi <= 0xffff; hi++ {
		for _, lo := range lows {
			b := uint32(hi)<<16 | lo
			f := math.Float32frombits(b)
			if f != f { // NaN payloads pinned in TestFP16NaN / round-trip tests
				continue
			}
			if got, want := F32ToFP16(f), refF32ToFP16(f); got != want {
				t.Fatalf("F32ToFP16(%#08x=%v) = %#04x, want %#04x", b, f, got, want)
			}
			if got, want := F32ToBF16(f), refF32ToBF16(f); got != want {
				t.Fatalf("F32ToBF16(%#08x=%v) = %#04x, want %#04x", b, f, got, want)
			}
		}
	}
}

func TestFP16NaN(t *testing.T) {
	cases := []uint32{
		0x7fc00000,             // canonical quiet NaN
		0x7f800001,             // signalling payload entirely in dropped bits
		0xffc12345, 0x7fffffff, // payload-carrying NaNs, both signs
	}
	for _, b := range cases {
		u := F32ToFP16(math.Float32frombits(b))
		if u&0x7c00 != 0x7c00 || u&0x3ff == 0 {
			t.Fatalf("F32ToFP16(%#08x) = %#04x, not a NaN", b, u)
		}
		if u&0x8000 != uint16(b>>16)&0x8000 {
			t.Fatalf("F32ToFP16(%#08x) = %#04x dropped the sign", b, u)
		}
		f := FP16ToF32(u)
		if f == f {
			t.Fatalf("FP16ToF32(%#04x) = %v, want NaN", u, f)
		}
	}
	// bf16 NaNs must stay NaNs too, even when the payload lives
	// entirely in the dropped low 16 bits.
	if u := F32ToBF16(math.Float32frombits(0x7f800001)); BF16ToF32(u) == BF16ToF32(u) {
		t.Fatalf("F32ToBF16(0x7f800001) = %#04x is not a NaN", u)
	}
}

func halfTestInputs(n int) []float32 {
	src := make([]float32, n)
	for i := range src {
		// mix magnitudes across the normal, subnormal and overflow ranges
		src[i] = float32(math.Ldexp(float64(i%97)/97-0.5, (i%40)-20))
	}
	src[0], src[1], src[2] = float32(math.Inf(1)), float32(math.Inf(-1)), 0
	return src
}

func TestSliceKernelsMatchScalar(t *testing.T) {
	src := halfTestInputs(1031) // odd length exercises the unroll tails
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	for _, dt := range []DType{BF16, FP16} {
		Encode(dt, enc, src)
		Decode(dt, dec, enc)
		for i, f := range src {
			var wantU uint16
			if dt == BF16 {
				wantU = F32ToBF16(f)
			} else {
				wantU = F32ToFP16(f)
			}
			if enc[i] != wantU {
				t.Fatalf("%v encode[%d] = %#04x, want %#04x", dt, i, enc[i], wantU)
			}
			var wantF float32
			if dt == BF16 {
				wantF = BF16ToF32(enc[i])
			} else {
				wantF = FP16ToF32(enc[i])
			}
			if math.Float32bits(dec[i]) != math.Float32bits(wantF) {
				t.Fatalf("%v decode[%d] = %v, want %v", dt, i, dec[i], wantF)
			}
		}
	}
}

func TestParallelConvMatchesSerial(t *testing.T) {
	src := halfTestInputs(3*convChunk + 517) // force the pooled path
	for _, dt := range []DType{BF16, FP16} {
		serial := make([]uint16, len(src))
		Encode(dt, serial, src)
		par := make([]uint16, len(src))
		ParallelEncode(dt, par, src)
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("%v ParallelEncode[%d] = %#04x, want %#04x", dt, i, par[i], serial[i])
			}
		}
	}
}

func TestFusedAddKernels(t *testing.T) {
	const dim = 33
	src0, src1 := halfTestInputs(dim), halfTestInputs(dim)
	for i := range src1 {
		src1[i] *= 0.5
	}
	for _, dt := range []DType{BF16, FP16} {
		e0, e1 := make([]uint16, dim), make([]uint16, dim)
		Encode(dt, e0, src0)
		Encode(dt, e1, src1)
		d0, d1 := make([]float32, dim), make([]float32, dim)
		Decode(dt, d0, e0)
		Decode(dt, d1, e1)

		got1, got2 := make([]float32, dim), make([]float32, dim)
		if dt == BF16 {
			AddBF16To(got1, e0)
			AddBF16To2(got2, e0, e1)
		} else {
			AddFP16To(got1, e0)
			AddFP16To2(got2, e0, e1)
		}
		for i := 0; i < dim; i++ {
			if math.Float32bits(got1[i]) != math.Float32bits(d0[i]) {
				t.Fatalf("%v AddTo[%d] = %v, want %v", dt, i, got1[i], d0[i])
			}
			if want := d0[i] + d1[i]; math.Float32bits(got2[i]) != math.Float32bits(want) {
				t.Fatalf("%v AddTo2[%d] = %v, want %v", dt, i, got2[i], want)
			}
		}
	}
}

// The serial conversion and fused-add kernels must be allocation-free:
// they run inside the zero-alloc training step budget.
func TestHalfKernelsAllocFree(t *testing.T) {
	src := halfTestInputs(256)
	enc := make([]uint16, len(src))
	dec := make([]float32, len(src))
	acc := make([]float32, len(src))
	for _, dt := range []DType{BF16, FP16} {
		dt := dt
		n := testing.AllocsPerRun(20, func() {
			Encode(dt, enc, src)
			Decode(dt, dec, enc)
			if dt == BF16 {
				AddBF16To(acc, enc)
				AddBF16To2(acc, enc, enc)
			} else {
				AddFP16To(acc, enc)
				AddFP16To2(acc, enc, enc)
			}
		})
		if n != 0 {
			t.Fatalf("%v kernels allocate %v/op, want 0", dt, n)
		}
	}
}
