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

// benchCodec times each half of a wire format's deposit on the same
// payload: encode, decode, and the reduce-scatter's accumulate. SetBytes
// counts the fp32 side, so MB/s compares directly across formats and
// with fp32's, whose encode publishes the payload itself and whose
// decode is one copy.
func benchCodec(b *testing.B, w WireFormat) {
	src := codecPayload()
	dst := make([]float32, codecLen)
	var d deposit
	d.encode(w, src)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			d.encode(w, src)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			d.decode(w, dst)
		}
	})
	b.Run("accumulate", func(b *testing.B) {
		b.SetBytes(4 * codecLen)
		for b.Loop() {
			d.accumulate(w, dst)
		}
	})
}

func BenchmarkWireCodecFP32(b *testing.B) { benchCodec(b, WireFP32) }
func BenchmarkWireCodecBF16(b *testing.B) { benchCodec(b, WireBF16) }
func BenchmarkWireCodecFP16(b *testing.B) { benchCodec(b, WireFP16) }
func BenchmarkWireCodecINT8(b *testing.B) { benchCodec(b, WireINT8) }
