package collective

import (
	"fmt"

	"repro/internal/tensor"
)

// WireFormat selects the on-the-wire encoding of a group's collective
// payloads. Compute stays fp32 on both sides; a non-fp32 format narrows
// each payload through reusable scratch right before the rendezvous and
// widens it right after, so the byte meters (and the Link-priced
// modeled time) see the compressed volume. WireFP32 is the historical
// zero-copy passthrough.
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
// in-flight operations). AllGather and Broadcast always move fp32: they
// carry control-plane payloads (checkpoint fan-out, elastic rebuild),
// not per-step gradient traffic.
func (g *Group) SetWire(w WireFormat) { g.wire = w }

// Wire returns the group's current wire format.
func (g *Group) Wire() WireFormat { return g.wire }

// encodeWire appends the encoded form of src to dst (pass dst[:0] to
// reuse capacity) and returns the extended slice. The output is sized
// exactly once up front and filled with slice-advance stores — the
// codec sits on the critical path of every compressed collective, and
// per-element append bookkeeping is measurable there.
func encodeWire(w WireFormat, dst []byte, src []float32) []byte {
	off := len(dst)
	need := wireBytes(w, len(src))
	if cap(dst)-off < need {
		grown := make([]byte, off+need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:off+need]
	}
	o := dst[off:]
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
		panic("collective: encodeWire on " + w.String())
	}
	return dst
}

// decodeWire widens src into dst, panicking when src is not the exact
// encoding of len(dst) elements (the compressed analogue of the fp32
// paths' length-mismatch panics).
func decodeWire(w WireFormat, dst []float32, src []byte) {
	if len(src) != wireBytes(w, len(dst)) {
		panic(fmt.Sprintf("collective: %s payload %dB, want %dB for %d elements",
			w, len(src), wireBytes(w, len(dst)), len(dst)))
	}
	s := src
	switch w {
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
		tensor.DequantizeInt8(dst, src)
	default:
		panic("collective: decodeWire on " + w.String())
	}
}

// decodeAccumWire accumulates the decoded src into dst (dst[i] += v),
// the reduce-scatter inner step of the compressed all-reduce.
func decodeAccumWire(w WireFormat, dst []float32, src []byte) {
	if len(src) != wireBytes(w, len(dst)) {
		panic(fmt.Sprintf("collective: %s payload %dB, want %dB for %d elements",
			w, len(src), wireBytes(w, len(dst)), len(dst)))
	}
	s := src
	switch w {
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
		tensor.DequantizeAddInt8(dst, src)
	default:
		panic("collective: decodeAccumWire on " + w.String())
	}
}

// a2aScratch returns rank's per-peer encode slots, allocating the slot
// array on first use (inner byte slices grow in place and are reused,
// so steady-state calls allocate nothing).
func (g *Group) a2aScratch(rank int) [][]byte {
	if g.a2aWire[rank] == nil {
		g.a2aWire[rank] = make([][]byte, g.w.n)
	}
	return g.a2aWire[rank]
}

// allToAllVWire is the compressed AllToAllV: each rank narrows its
// outgoing payloads into private scratch, deposits the encoded slices,
// and every receiver widens the peer bytes straight into recv. The
// self-addressed payload is a plain fp32 copy (it never crosses a rank
// boundary, so compressing it would only add quantization error).
func (g *Group) allToAllVWire(rank int, send, recv [][]float32) error {
	n := g.w.n
	enc := g.a2aScratch(rank)
	for j := 0; j < n; j++ {
		if j == rank {
			continue
		}
		enc[j] = encodeWire(g.wire, enc[j][:0], send[j])
	}
	if err := g.wait(rank); err != nil {
		return err
	}
	if len(send[rank]) != len(recv[rank]) {
		panic(fmt.Sprintf("collective: alltoallv rank %d self payload %d floats, recv wants %d",
			rank, len(send[rank]), len(recv[rank])))
	}
	copy(recv[rank], send[rank])
	var moved int64
	for j := 0; j < n; j++ {
		if j == rank {
			continue
		}
		src := g.a2aWire[j][rank]
		decodeWire(g.wire, recv[j], src)
		moved += int64(len(src))
	}
	if err := g.wait(rank); err != nil {
		return err
	}
	g.w.stats[OpAllToAll].add(moved, g.w.link.xferSec(moved, n-1))
	return nil
}

// allReduceWire is the compressed all-reduce. The reduce-scatter half
// keeps the ring schedule: at step s each rank encodes the chunk it is
// forwarding, and its successor widens and accumulates it (partial sums
// are re-quantized per hop, like any compressed ring). The gather half
// deliberately departs from per-hop forwarding: each fully reduced
// chunk is encoded exactly once by its owner, the owner widens its own
// encoding back into its buffer, and every peer widens those same
// bytes — so all ranks decode identical payloads and the dense replicas
// stay bit-identical across ranks, which the elastic trainer's replica
// fingerprint checks rely on. Volume still matches the analytic
// 2·(n-1)/n·size·bpe, and modeled time keeps the ring's 2·(n-1)
// message count.
func (g *Group) allReduceWire(rank int, buf []float32) error {
	n := g.w.n
	size := len(buf)
	prev := (rank - 1 + n) % n
	var moved int64
	for s := 0; s < n-1; s++ {
		k := ((rank-s)%n + n) % n
		lo, hi := chunkRange(size, n, k)
		g.arWire[rank] = encodeWire(g.wire, g.arWire[rank][:0], buf[lo:hi])
		if err := g.wait(rank); err != nil {
			return err
		}
		k = ((rank-1-s)%n + n) % n
		lo, hi = chunkRange(size, n, k)
		src := g.arWire[prev]
		decodeAccumWire(g.wire, buf[lo:hi], src)
		moved += int64(len(src))
		if err := g.wait(rank); err != nil {
			return err
		}
	}
	// Gather: broadcast each owner's fully reduced chunk (rank+1) once.
	k := (rank + 1) % n
	lo, hi := chunkRange(size, n, k)
	g.arWire[rank] = encodeWire(g.wire, g.arWire[rank][:0], buf[lo:hi])
	decodeWire(g.wire, buf[lo:hi], g.arWire[rank])
	if err := g.wait(rank); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		if j == rank {
			continue
		}
		jlo, jhi := chunkRange(size, n, (j+1)%n)
		src := g.arWire[j]
		decodeWire(g.wire, buf[jlo:jhi], src)
		moved += int64(len(src))
	}
	if err := g.wait(rank); err != nil {
		return err
	}
	g.w.stats[OpAllReduce].add(moved, g.w.link.xferSec(moved, 2*(n-1)))
	return nil
}
