package collective

import (
	"fmt"

	"repro/internal/tensor"
)

// WireFormat selects the on-the-wire encoding of a group's collective
// payloads. It is only a codec: every format runs the same collective
// schedule, and only what a deposit holds differs. Compute stays fp32
// on both sides; a non-fp32 format narrows each payload through
// reusable scratch right before the rendezvous and widens it right
// after, so the byte meters (and the Link-priced modeled time) see the
// compressed volume. WireFP32 deposits the sender's floats themselves,
// which peers read in place.
type WireFormat uint8

const (
	WireFP32 WireFormat = iota
	WireFP16
	WireBF16
	// WireINT8 quantizes each 64-element chunk to int8 with one
	// float32 scale (maxabs/127) per chunk (tensor.QuantizeInt8):
	// 1.0625 bytes/element on chunk-aligned payloads. Built for pooled
	// embedding rows, whose per-chunk dynamic range is narrow.
	WireINT8
)

func (w WireFormat) String() string {
	switch w {
	case WireFP32:
		return "fp32"
	case WireFP16:
		return "fp16"
	case WireBF16:
		return "bf16"
	case WireINT8:
		return "int8"
	}
	return fmt.Sprintf("wire(%d)", uint8(w))
}

// ParseWireFormat parses "fp32"/"fp16"/"bf16"/"int8".
func ParseWireFormat(s string) (WireFormat, error) {
	switch s {
	case "fp32", "":
		return WireFP32, nil
	case "fp16":
		return WireFP16, nil
	case "bf16":
		return WireBF16, nil
	case "int8":
		return WireINT8, nil
	}
	return WireFP32, fmt.Errorf("unknown wire format %q (want fp32, fp16, bf16 or int8)", s)
}

// BytesPerElem returns the average wire bytes per float32 element.
// WireINT8 assumes chunk-aligned payloads (1 + 4/64); short tails add
// at most one 4-byte scale.
func (w WireFormat) BytesPerElem() float64 {
	switch w {
	case WireFP16, WireBF16:
		return 2
	case WireINT8:
		return 1 + 4.0/tensor.Int8ChunkLen
	}
	return 4
}

// wireBytes returns the exact encoded size of an n-element payload.
func wireBytes(w WireFormat, n int) int {
	switch w {
	case WireFP16, WireBF16:
		return 2 * n
	case WireINT8:
		return tensor.Int8Bytes(n)
	}
	return 4 * n
}

// SetWire selects the wire format for this group's AllReduce and
// AllToAllV payloads. Every rank of the group must use the same format;
// call it before the first collective (it is not synchronized against
// in-flight operations).
func (g *Group) SetWire(w WireFormat) { g.wire = w }

// deposit is what one rank publishes for its peers to read after the
// next rendezvous. On the fp32 wire it is the sender's floats
// themselves, read in place with no copy; on every other wire it is
// their encoding, staged in scratch the deposit keeps and reuses, so
// steady-state collectives allocate nothing.
type deposit struct {
	f []float32 // WireFP32
	b []byte    // every other format
}

// encode publishes src in format w. The encoding is sized exactly once
// up front and filled with slice-advance stores — the codec sits on the
// critical path of every compressed collective, and per-element append
// bookkeeping is measurable there.
func (d *deposit) encode(w WireFormat, src []float32) {
	if w == WireFP32 {
		d.f = src
		return
	}
	need := wireBytes(w, len(src))
	if cap(d.b) < need {
		d.b = make([]byte, need)
	}
	d.b = d.b[:need]
	o := d.b
	switch w {
	case WireFP16:
		for _, v := range src {
			u := tensor.F32ToFP16(v)
			o[0], o[1] = byte(u), byte(u>>8)
			o = o[2:]
		}
	case WireBF16:
		// 4x unrolled: the bf16 narrowing is two integer ops per
		// element, so loop and bounds-check overhead dominates a
		// straight loop.
		i := 0
		for ; i+4 <= len(src); i += 4 {
			u0 := tensor.F32ToBF16(src[i])
			u1 := tensor.F32ToBF16(src[i+1])
			u2 := tensor.F32ToBF16(src[i+2])
			u3 := tensor.F32ToBF16(src[i+3])
			o[0], o[1] = byte(u0), byte(u0>>8)
			o[2], o[3] = byte(u1), byte(u1>>8)
			o[4], o[5] = byte(u2), byte(u2>>8)
			o[6], o[7] = byte(u3), byte(u3>>8)
			o = o[8:]
		}
		for ; i < len(src); i++ {
			u := tensor.F32ToBF16(src[i])
			o[0], o[1] = byte(u), byte(u>>8)
			o = o[2:]
		}
	case WireINT8:
		tensor.QuantizeInt8(o, src)
	default:
		panic("collective: encode on " + w.String())
	}
}

// size returns the wire bytes d carries in format w, panicking unless
// that is the exact size of len(dst) elements (a payload-length
// mismatch between ranks).
func (d *deposit) size(w WireFormat, dst []float32) int64 {
	got := len(d.b)
	if w == WireFP32 {
		got = 4 * len(d.f)
	}
	if want := wireBytes(w, len(dst)); got != want {
		panic(fmt.Sprintf("collective: %s payload %dB, want %dB for %d elements", w, got, want, len(dst)))
	}
	return int64(got)
}

// decode widens d into dst and returns the wire bytes it read. On the
// fp32 wire it is a copy, and none when dst is the deposit itself (an
// owner decoding its own gather deposit back).
func (d *deposit) decode(w WireFormat, dst []float32) int64 {
	n := d.size(w, dst)
	s := d.b
	switch w {
	case WireFP32:
		copy(dst, d.f)
	case WireFP16:
		for i := range dst {
			dst[i] = tensor.FP16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			s = s[2:]
		}
	case WireBF16:
		i := 0
		for ; i+4 <= len(dst); i += 4 {
			dst[i] = tensor.BF16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			dst[i+1] = tensor.BF16ToF32(uint16(s[2]) | uint16(s[3])<<8)
			dst[i+2] = tensor.BF16ToF32(uint16(s[4]) | uint16(s[5])<<8)
			dst[i+3] = tensor.BF16ToF32(uint16(s[6]) | uint16(s[7])<<8)
			s = s[8:]
		}
		for ; i < len(dst); i++ {
			dst[i] = tensor.BF16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			s = s[2:]
		}
	case WireINT8:
		tensor.DequantizeInt8(dst, s)
	default:
		panic("collective: decode on " + w.String())
	}
	return n
}

// accumulate adds the decoded d into dst (dst[i] += v), the
// reduce-scatter's inner step, and returns the wire bytes it read.
func (d *deposit) accumulate(w WireFormat, dst []float32) int64 {
	n := d.size(w, dst)
	s := d.b
	switch w {
	case WireFP32:
		tensor.AddTo(dst, d.f)
	case WireFP16:
		for i := range dst {
			dst[i] += tensor.FP16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			s = s[2:]
		}
	case WireBF16:
		i := 0
		for ; i+4 <= len(dst); i += 4 {
			dst[i] += tensor.BF16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			dst[i+1] += tensor.BF16ToF32(uint16(s[2]) | uint16(s[3])<<8)
			dst[i+2] += tensor.BF16ToF32(uint16(s[4]) | uint16(s[5])<<8)
			dst[i+3] += tensor.BF16ToF32(uint16(s[6]) | uint16(s[7])<<8)
			s = s[8:]
		}
		for ; i < len(dst); i++ {
			dst[i] += tensor.BF16ToF32(uint16(s[0]) | uint16(s[1])<<8)
			s = s[2:]
		}
	case WireINT8:
		tensor.DequantizeAddInt8(dst, s)
	default:
		panic("collective: accumulate on " + w.String())
	}
	return n
}
