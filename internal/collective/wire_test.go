package collective

import (
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

func wireFormats() []WireFormat { return []WireFormat{WireFP16, WireBF16, WireINT8} }

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
// to its chunk's scale (payloadMax is an upper bound on it).
func passTol(w WireFormat, payloadMax, elemAbs float64) float64 {
	if w == WireINT8 {
		return payloadMax/254 + 1e-6
	}
	return relTol(w)*elemAbs + 1e-6
}

func TestWireCodecRoundTrip(t *testing.T) {
	rng := xrand.New(7)
	for _, w := range wireFormats() {
		for _, n := range []int{0, 1, 63, 64, 65, 300, 1024} {
			src := make([]float32, n)
			var maxAbs float64
			for i := range src {
				src[i] = float32(rng.Norm())
				if a := math.Abs(float64(src[i])); a > maxAbs {
					maxAbs = a
				}
			}
			enc := encodeWire(w, nil, src)
			if len(enc) != wireBytes(w, n) {
				t.Fatalf("%v n=%d encoded %dB, want %dB", w, n, len(enc), wireBytes(w, n))
			}
			dec := make([]float32, n)
			decodeWire(w, dec, enc)
			for i := range src {
				tol := passTol(w, maxAbs, math.Abs(float64(src[i])))
				if math.Abs(float64(dec[i]-src[i])) > tol {
					t.Fatalf("%v n=%d elem %d: %v -> %v (tol %v)", w, n, i, src[i], dec[i], tol)
				}
			}
			// Re-encoding the decoded payload must be a fixed point:
			// values already on the quantization grid stay put.
			if w != WireINT8 {
				enc2 := encodeWire(w, nil, dec)
				for i := range enc {
					if enc[i] != enc2[i] {
						t.Fatalf("%v n=%d: re-encode differs at byte %d", w, n, i)
					}
				}
			}
			// decodeAccumWire must add exactly the decoded values.
			acc := make([]float32, n)
			for i := range acc {
				acc[i] = 1
			}
			decodeAccumWire(w, acc, enc)
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
	for _, w := range []WireFormat{WireFP32, WireFP16, WireBF16, WireINT8} {
		n := 4 * tensor.Int8ChunkLen
		if got, want := float64(wireBytes(w, n)), w.BytesPerElem()*float64(n); got != want {
			t.Fatalf("%v: wireBytes(%d)=%v, BytesPerElem implies %v", w, n, got, want)
		}
	}
}

func TestAllReduceWireBitIdenticalAcrossRanks(t *testing.T) {
	for _, w := range wireFormats() {
		for _, n := range []int{2, 3, 4, 7} {
			for _, size := range []int{1, 5, 64, 257, 1000} {
				rng := xrand.New(int64(n*1000 + size))
				in := make([][]float32, n)
				var want []float32
				for r := range in {
					in[r] = make([]float32, size)
					for i := range in[r] {
						in[r][i] = float32(rng.Norm())
					}
				}
				world := NewWorld(n, PerfectLink())
				g := world.NewGroup()
				g.SetWire(w)
				runRanks(n, func(r int) { g.AllReduce(r, in[r]) })
				want = in[0]
				for r := 1; r < n; r++ {
					for i := range want {
						if in[r][i] != want[i] {
							t.Fatalf("%v n=%d size=%d: ranks 0 and %d disagree at %d (%v vs %v)",
								w, n, size, r, i, want[i], in[r][i])
						}
					}
				}
			}
		}
	}
}

func TestAllReduceWireApproximatesSum(t *testing.T) {
	for _, w := range wireFormats() {
		n, size := 4, 512
		rng := xrand.New(11)
		in := make([][]float32, n)
		want := make([]float64, size)
		var maxAbs float64
		for r := range in {
			in[r] = make([]float32, size)
			for i := range in[r] {
				in[r][i] = float32(rng.Norm())
				want[i] += float64(in[r][i])
			}
		}
		for _, v := range want {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		world := NewWorld(n, PerfectLink())
		g := world.NewGroup()
		g.SetWire(w)
		runRanks(n, func(r int) { g.AllReduce(r, in[r]) })
		// n-1 re-quantized hops plus the gather pass compound the
		// per-pass error; bound it loosely but meaningfully.
		for i := range want {
			tol := float64(n+1) * passTol(w, maxAbs, maxAbs)
			if math.Abs(float64(in[0][i])-want[i]) > tol {
				t.Fatalf("%v elem %d: got %v want %v (tol %v)", w, i, in[0][i], want[i], tol)
			}
		}
	}
}

func TestAllToAllVWireMatchesPayloads(t *testing.T) {
	for _, w := range wireFormats() {
		n := 3
		rng := xrand.New(5)
		send := make([][][]float32, n)
		recv := make([][][]float32, n)
		for r := 0; r < n; r++ {
			send[r] = make([][]float32, n)
			recv[r] = make([][]float32, n)
			for j := 0; j < n; j++ {
				// variable lengths, including a non-multiple of the
				// int8 chunk and an empty payload
				l := 17*r + 31*j
				if r == 0 && j == 1 {
					l = 0
				}
				send[r][j] = make([]float32, l)
				for i := range send[r][j] {
					send[r][j][i] = float32(rng.Norm())
				}
			}
		}
		for r := 0; r < n; r++ {
			for j := 0; j < n; j++ {
				recv[r][j] = make([]float32, len(send[j][r]))
			}
		}
		world := NewWorld(n, PerfectLink())
		g := world.NewGroup()
		g.SetWire(w)
		runRanks(n, func(r int) { g.AllToAllV(r, send[r], recv[r]) })
		for r := 0; r < n; r++ {
			for j := 0; j < n; j++ {
				src := send[j][r]
				for i := range src {
					got, want := recv[r][j][i], src[i]
					if j == r {
						if got != want {
							t.Fatalf("%v self payload must be exact: rank %d elem %d", w, r, i)
						}
						continue
					}
					var payloadMax float64
					for _, v := range src {
						if a := math.Abs(float64(v)); a > payloadMax {
							payloadMax = a
						}
					}
					if math.Abs(float64(got-want)) > passTol(w, payloadMax, math.Abs(float64(want))) {
						t.Fatalf("%v rank %d from %d elem %d: got %v want %v", w, r, j, i, got, want)
					}
				}
			}
		}
	}
}

// The byte meters must count encoded wire bytes, not fp32 payload
// bytes — that is what shrinks the Link-priced modeled time.
func TestWireMetersCountWireBytes(t *testing.T) {
	n, size := 4, 1024
	link := Link{Name: "test-25GbE", BandwidthBps: 25e9 / 8, LatencySec: 2e-6}
	for _, w := range wireFormats() {
		world := NewWorld(n, link)
		g := world.NewGroup()
		g.SetWire(w)
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, size)
			for i := range bufs[r] {
				bufs[r][i] = float32(r + i)
			}
		}
		runRanks(n, func(r int) { g.AllReduce(r, bufs[r]) })
		var want int64
		for r := 0; r < n; r++ {
			for s := 0; s < n; s++ { // n-1 rs chunks + n-1 gather chunks per rank
				lo, hi := chunkRange(size, n, s)
				if s != (r+1)%n {
					want += int64(wireBytes(w, hi-lo)) // rs: every chunk but the owned one
				}
			}
			for j := 0; j < n; j++ {
				if j == r {
					continue
				}
				lo, hi := chunkRange(size, n, (j+1)%n)
				want += int64(wireBytes(w, hi-lo))
			}
		}
		if got := world.Snapshot().AllReduce.Bytes; got != want {
			t.Fatalf("%v allreduce meter %d bytes, want %d", w, got, want)
		}
		// Compression must shrink the Link-priced modeled time versus
		// the same payload over an fp32 group on the same link.
		ref := NewWorld(n, link)
		gRef := ref.NewGroup()
		refBufs := make([][]float32, n)
		for r := range refBufs {
			refBufs[r] = make([]float32, size)
		}
		runRanks(n, func(r int) { gRef.AllReduce(r, refBufs[r]) })
		if cs, fs := world.Snapshot().AllReduce.ModelSec, ref.Snapshot().AllReduce.ModelSec; cs <= 0 || cs >= fs {
			t.Fatalf("%v modeled time %v not below fp32's %v", w, cs, fs)
		}
	}
}

// Steady-state compressed collectives must not allocate: the hybrid
// step budget (0 allocs) has no room for per-step encode buffers.
func TestWireCollectivesSteadyStateAllocFree(t *testing.T) {
	n, size := 2, 4096
	for _, w := range wireFormats() {
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
