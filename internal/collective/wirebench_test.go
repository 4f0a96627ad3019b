package collective

import (
	"testing"

	"repro/internal/xrand"
)

// codecLen is one 64 KiB fp32 payload, a bucket-sized slice of the
// hybrid trainer's traffic.
const codecLen = 16384

func codecPayload() []float32 {
	src := make([]float32, codecLen)
	rng := xrand.New(1)
	for i := range src {
		src[i] = float32(rng.Norm())
	}
	return src
}

// benchCodec times each half of a wire format's codec on the same
// payload: encode, decode, and the reduce-scatter's decode-accumulate.
// SetBytes counts the fp32 side, so MB/s compares directly across
// formats and with BenchmarkWireCodecFP32's copy.
func benchCodec(b *testing.B, w WireFormat) {
	src := codecPayload()
	dst := make([]float32, codecLen)
	enc := encodeWire(w, nil, src)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			enc = encodeWire(w, enc[:0], src)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			decodeWire(w, dst, enc)
		}
	})
	b.Run("decodeAccum", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			decodeAccumWire(w, dst, enc)
		}
	})
}

// BenchmarkWireCodecFP32 is the baseline the codecs are read against:
// the fp32 wire moves a payload with one copy.
func BenchmarkWireCodecFP32(b *testing.B) {
	src := codecPayload()
	dst := make([]float32, codecLen)
	b.Run("copy", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			copy(dst, src)
		}
	})
}

func BenchmarkWireCodecBF16(b *testing.B) { benchCodec(b, WireBF16) }
func BenchmarkWireCodecFP16(b *testing.B) { benchCodec(b, WireFP16) }
func BenchmarkWireCodecINT8(b *testing.B) { benchCodec(b, WireINT8) }
