package collective

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// wireFormats lists every wire format, fp32 first.
func wireFormats() []WireFormat { return []WireFormat{WireFP32, WireFP16, WireBF16, WireINT8} }

// lossyFormats lists every wire format but fp32.
func lossyFormats() []WireFormat { return wireFormats()[1:] }

// encoded returns a fresh deposit of src in format w.
func encoded(w WireFormat, src []float32) *deposit {
	d := new(deposit)
	d.encode(w, src)
	return d
}

// checkDeposit fails unless d is src published in format w: src itself
// on fp32, an encoding of exactly wireBytes otherwise.
func checkDeposit(t *testing.T, w WireFormat, d *deposit, src []float32) {
	t.Helper()
	if w == WireFP32 {
		if len(d.f) != len(src) || len(src) > 0 && &d.f[0] != &src[0] {
			t.Fatalf("fp32 deposit of %d elements is not the sender's floats", len(src))
		}
		return
	}
	if len(d.b) != wireBytes(w, len(src)) {
		t.Fatalf("%v: %d elements encode to %dB, want %dB", w, len(src), len(d.b), wireBytes(w, len(src)))
	}
}

// FuzzParseWireFormat: the -precision.wire parser returns an error rather
// than panics, and a format it accepts parses back from its own String().
func FuzzParseWireFormat(f *testing.F) {
	for _, s := range []string{"", "fp32", "fp16", "bf16", "int8", "INT8", "wire(4)"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		w, err := ParseWireFormat(s)
		if err != nil {
			return
		}
		if again, err := ParseWireFormat(w.String()); err != nil || again != w {
			t.Fatalf("%q parses to %v, whose String() parses to %v (%v)", s, w, again, err)
		}
	})
}

// relTol is the element tolerance of one quantization pass, relative to
// the payload's magnitude scale.
func relTol(w WireFormat) float64 {
	switch w {
	case WireFP16:
		return 1.0 / 2048
	case WireBF16:
		return 1.0 / 256
	default: // int8: half a quantization step of a maxabs~3 chunk
		return 1.0 / 127
	}
}

// passTol bounds the absolute error of one quantization pass on an
// element of magnitude elemAbs inside a payload of magnitude payloadMax:
// the half formats round relative to the element, int8 rounds relative
// to its chunk's scale (payloadMax is an upper bound on it). The fp32
// wire is exact.
func passTol(w WireFormat, payloadMax, elemAbs float64) float64 {
	switch w {
	case WireFP32:
		return 0
	case WireINT8:
		return payloadMax/254 + 1e-6
	}
	return relTol(w)*elemAbs + 1e-6
}

// TestWireCodecRoundTrip runs every format's deposit: fp32 publishes the
// sender's floats and decodes them exactly, the others encode to
// wireBytes and decode within one quantization pass; the half formats'
// encodings are fixed points, and accumulate adds exactly the decoded
// values.
func TestWireCodecRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for _, w := range wireFormats() {
		for _, n := range []int{0, 1, 63, 64, 65, 300, 1024} {
			src := make([]float32, n)
			var maxAbs float64
			for i := range src {
				src[i] = float32(rng.Norm())
				maxAbs = max(maxAbs, math.Abs(float64(src[i])))
			}
			enc := encoded(w, src)
			checkDeposit(t, w, enc, src)
			dec := make([]float32, n)
			if got := enc.decode(w, dec); got != int64(wireBytes(w, n)) {
				t.Fatalf("%v n=%d: decode read %dB, want %dB", w, n, got, wireBytes(w, n))
			}
			for i := range src {
				tol := passTol(w, maxAbs, math.Abs(float64(src[i])))
				if math.Abs(float64(dec[i]-src[i])) > tol {
					t.Fatalf("%v n=%d elem %d: %v -> %v (tol %v)", w, n, i, src[i], dec[i], tol)
				}
			}
			// Re-encoding the decoded payload must be a fixed point:
			// values already on the quantization grid stay put.
			if w != WireINT8 {
				if string(encoded(w, dec).b) != string(enc.b) {
					t.Fatalf("%v n=%d: re-encode differs", w, n)
				}
			}
			acc := make([]float32, n)
			for i := range acc {
				acc[i] = 1
			}
			enc.accumulate(w, acc)
			for i := range acc {
				if acc[i] != 1+dec[i] {
					t.Fatalf("%v accum elem %d: got %v want %v", w, i, acc[i], 1+dec[i])
				}
			}
		}
	}
}

func TestWireBytesPerElem(t *testing.T) {
	// The analytic bytes-per-element must match the exact codec size on
	// chunk-aligned payloads (what the perfmodel formulas assume).
	for _, w := range wireFormats() {
		n := 4 * tensor.Int8ChunkLen
		if got, want := float64(wireBytes(w, n)), w.BytesPerElem()*float64(n); got != want {
			t.Fatalf("%v: wireBytes(%d)=%v, BytesPerElem implies %v", w, n, got, want)
		}
	}
}

// Steady-state compressed collectives must not allocate: the hybrid
// step budget (0 allocs) has no room for per-step encode buffers.
func TestWireCollectivesSteadyStateAllocFree(t *testing.T) {
	n, size := 2, 4096
	for _, w := range lossyFormats() {
		world := NewWorld(n, PerfectLink())
		g := world.NewGroup()
		g.SetWire(w)
		bufs := make([][]float32, n)
		sends := make([][][]float32, n)
		recvs := make([][][]float32, n)
		for r := 0; r < n; r++ {
			bufs[r] = make([]float32, size)
			sends[r] = make([][]float32, n)
			recvs[r] = make([][]float32, n)
			for j := 0; j < n; j++ {
				sends[r][j] = make([]float32, 300)
				recvs[r][j] = make([]float32, 300)
			}
		}
		step := func() {
			runRanks(n, func(r int) {
				g.AllReduce(r, bufs[r])
				g.AllToAllV(r, sends[r], recvs[r])
			})
		}
		step() // warm the scratch
		step()
		avg := testing.AllocsPerRun(10, step)
		// runRanks itself allocates its goroutines and closures; a
		// fp32 baseline measures that harness floor.
		gBase := world.NewGroup()
		base := testing.AllocsPerRun(10, func() {
			runRanks(n, func(r int) {
				gBase.AllReduce(r, bufs[r])
				gBase.AllToAllV(r, sends[r], recvs[r])
			})
		})
		if avg > base {
			t.Fatalf("%v steady state allocates %v/step vs fp32 harness floor %v", w, avg, base)
		}
	}
}
