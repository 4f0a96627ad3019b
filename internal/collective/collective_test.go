package collective

import (
	"math"
	"sync"
	"testing"

	"repro/internal/hw"
	"repro/internal/xrand"
)

// runRanks executes fn once per rank on its own goroutine and waits.
func runRanks(n int, fn func(rank int)) {
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			fn(r)
		}(r)
	}
	wg.Wait()
}

// TestAllReduceMatchesSerialSum checks the fp32 wire's reduced vector
// against the float32 serial sum; TestAllReduceWireApproximatesSum runs
// the same check on the lossy formats.
func TestAllReduceMatchesSerialSum(t *testing.T) { checkAllReduceSum(t, WireFP32) }

func TestAllReduceWireApproximatesSum(t *testing.T) {
	for _, w := range lossyFormats() {
		checkAllReduceSum(t, w)
	}
}

// arCase is one all-reduce input: n ranks of size standard normals
// drawn from seed.
type arCase struct {
	n, size int
	seed    int64
}

// arGrid returns every (n, size) pair of ns and sizes, seeded by
// seed0 + n·1000 + size.
func arGrid(seed0 int64, ns, sizes []int) []arCase {
	var cs []arCase
	for _, n := range ns {
		for _, size := range sizes {
			cs = append(cs, arCase{n, size, seed0 + int64(n*1000+size)})
		}
	}
	return cs
}

// input draws c's per-rank vectors.
func (c arCase) input() [][]float32 {
	rng := xrand.New(c.seed)
	in := make([][]float32, c.n)
	for r := range in {
		in[r] = make([]float32, c.size)
		for i := range in[r] {
			in[r][i] = float32(rng.Norm())
		}
	}
	return in
}

// ringPartialMax returns the largest |Σ| over every run of consecutive
// ranks around the ring, at any element: each value the ring quantizes
// is such a partial sum (the chunk owner only decides where a run
// starts), and a partial sum can outgrow the full one.
func ringPartialMax(in [][]float32) float64 {
	n := len(in)
	var m float64
	for i := range in[0] {
		for s := 0; s < n; s++ {
			var sum float64
			for k := 0; k < n; k++ {
				sum += float64(in[(s+k)%n][i])
				m = max(m, math.Abs(sum))
			}
		}
	}
	return m
}

// checkAllReduceSum checks format w's reduced vector against the serial
// sum: within float rounding of the float32 serial sum on fp32, and
// within the compounded quantization error on the lossy formats, whose
// n-1 re-quantized hops plus the gather pass each add one pass's error.
// On the grid that pass error is bounded at the largest partial sum the
// ring forms; the fixed 4-rank case keeps the tighter bound at the
// largest final sum. Every rank must hold the bit-identical reduced
// vector either way.
func checkAllReduceSum(t *testing.T, w WireFormat) {
	t.Helper()
	fixed := arCase{n: 4, size: 512, seed: 11}
	cases := append(arGrid(0, []int{1, 2, 3, 4, 7}, []int{0, 1, 5, 64, 512, 1000}), fixed)
	for _, c := range cases {
		n, size := c.n, c.size
		in := c.input()
		want := make([]float32, size)
		exact := make([]float64, size)
		var sumMax float64
		for i := range want {
			for r := range in {
				want[i] += in[r][i]
				exact[i] += float64(in[r][i])
			}
			sumMax = max(sumMax, math.Abs(exact[i]))
		}
		tol := 1e-4
		if w != WireFP32 && n > 1 {
			bound := ringPartialMax(in)
			if c == fixed {
				bound = sumMax
			}
			tol = float64(n+1) * passTol(w, bound, bound)
		}
		g := NewWorld(n, PerfectLink()).NewGroup()
		g.SetWire(w)
		runRanks(n, func(r int) { g.AllReduce(r, in[r]) })
		for r := 0; r < n; r++ {
			for i := range want {
				ref := float64(want[i])
				if w != WireFP32 {
					ref = exact[i]
				}
				if math.Abs(float64(in[r][i])-ref) > tol {
					t.Fatalf("%v n=%d size=%d seed=%d rank %d elem %d: got %v want %v (tol %v)",
						w, n, size, c.seed, r, i, in[r][i], ref, tol)
				}
				if in[r][i] != in[0][i] {
					t.Fatalf("%v n=%d size=%d seed=%d: ranks 0 and %d disagree at %d (%v vs %v)",
						w, n, size, c.seed, r, i, in[0][i], in[r][i])
				}
			}
		}
	}
}

// TestAllReduceDeterministic checks the fp32 wire for bit-identical
// results across ranks and runs; TestAllReduceWireBitIdenticalAcrossRanks
// runs the same check on the lossy formats.
func TestAllReduceDeterministic(t *testing.T) { checkAllReduceDeterministic(t, WireFP32) }

func TestAllReduceWireBitIdenticalAcrossRanks(t *testing.T) {
	for _, w := range lossyFormats() {
		checkAllReduceDeterministic(t, w)
	}
}

// checkAllReduceDeterministic checks bit-identical results across ranks
// and, rank by rank, across repeated runs on format w: the ring applies
// contributions in a fixed order and the gather decodes one payload per
// chunk on every rank, so goroutine scheduling must not leak into the
// floats.
func checkAllReduceDeterministic(t *testing.T, w WireFormat) {
	t.Helper()
	cases := append(arGrid(0, []int{2, 3, 4, 7}, []int{1, 5, 64, 257, 1000}), arCase{4, 1003, 42})
	for _, c := range cases {
		run := func() [][]float32 {
			in := c.input()
			g := NewWorld(c.n, PerfectLink()).NewGroup()
			g.SetWire(w)
			runRanks(c.n, func(r int) { g.AllReduce(r, in[r]) })
			return in
		}
		first := run()
		for r := 1; r < c.n; r++ {
			if i := sameFloats(first[r], first[0]); i >= 0 {
				t.Fatalf("%v n=%d size=%d seed=%d: ranks 0 and %d disagree at %d",
					w, c.n, c.size, c.seed, r, i)
			}
		}
		for trial := 0; trial < 3; trial++ {
			again := run()
			for r := range again {
				if i := sameFloats(again[r], first[r]); i >= 0 {
					t.Fatalf("%v n=%d size=%d seed=%d trial %d rank %d: elem %d %v != %v",
						w, c.n, c.size, c.seed, trial, r, i, again[r][i], first[r][i])
				}
			}
		}
	}
}

// TestAllToAllV checks the fp32 wire's all-to-all delivery;
// TestAllToAllVWireMatchesPayloads runs the same check on the lossy
// formats.
func TestAllToAllV(t *testing.T) { checkAllToAllV(t, WireFP32) }

func TestAllToAllVWireMatchesPayloads(t *testing.T) {
	for _, w := range lossyFormats() {
		checkAllToAllV(t, w)
	}
}

// checkAllToAllV checks that every rank receives what each peer
// addressed to it on format w, over variable lengths (an empty payload
// and lengths off the int8 chunk grid among them): exactly on fp32 and
// for the self payload, within one quantization pass otherwise.
func checkAllToAllV(t *testing.T, w WireFormat) {
	t.Helper()
	for _, n := range []int{3, 4} {
		rng := xrand.New(int64(5 + n))
		send := make([][][]float32, n)
		recv := make([][][]float32, n)
		for r := 0; r < n; r++ {
			send[r] = make([][]float32, n)
			for j := 0; j < n; j++ {
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
			recv[r] = make([][]float32, n)
			for j := 0; j < n; j++ {
				recv[r][j] = make([]float32, len(send[j][r]))
			}
		}
		g := NewWorld(n, PerfectLink()).NewGroup()
		g.SetWire(w)
		runRanks(n, func(r int) { g.AllToAllV(r, send[r], recv[r]) })
		for r := 0; r < n; r++ {
			for j := 0; j < n; j++ {
				src := send[j][r]
				var payloadMax float64
				for _, v := range src {
					payloadMax = max(payloadMax, math.Abs(float64(v)))
				}
				for i, want := range src {
					got := recv[r][j][i]
					tol := passTol(w, payloadMax, math.Abs(float64(want)))
					if j == r {
						tol = 0
					}
					if math.Abs(float64(got-want)) > tol {
						t.Fatalf("%v n=%d rank %d from %d elem %d: got %v want %v (tol %v)",
							w, n, r, j, i, got, want, tol)
					}
				}
			}
		}
	}
}

// TestMeters pins the fp32 wire's byte accounting;
// TestWireMetersCountWireBytes pins the lossy formats' and checks that
// each shrinks the Link-priced modeled time against fp32's on the same
// link.
func TestMeters(t *testing.T) { checkMeters(t, WireFP32) }

func TestWireMetersCountWireBytes(t *testing.T) {
	fp32Sec := checkMeters(t, WireFP32)
	for _, w := range lossyFormats() {
		if sec := checkMeters(t, w); sec <= 0 || sec >= fp32Sec {
			t.Errorf("%v modeled time %v not below fp32's %v", w, sec, fp32Sec)
		}
	}
}

// checkMeters pins format w's byte accounting against the analytic
// collective volumes, counting encoded wire bytes: the ring all-reduce
// moves every chunk but the owned one in the reduce-scatter and every
// peer's owned chunk in the gather, 2·(n-1)·size elements in all, and
// an all-to-all moves every cross-rank payload exactly once. It returns
// the all-reduce's modeled seconds on a 25 GbE link.
func checkMeters(t *testing.T, w WireFormat) float64 {
	t.Helper()
	const n, size, msg = 4, 1000, 25
	link := Link{Name: "test-25GbE", BandwidthBps: 25e9 / 8, LatencySec: 2e-6}
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
		for j := 0; j < n; j++ {
			if j == r {
				continue
			}
			lo, hi := chunkRange(size, n, (j+1)%n)
			want += 2 * int64(wireBytes(w, hi-lo)) // rs: every chunk but (r+1); gather: every (j+1)
		}
	}
	if w == WireFP32 && want != 2*(n-1)*size*4 {
		t.Fatalf("fp32 wire bytes %d, analytic %d", want, 2*(n-1)*size*4)
	}
	st := world.Snapshot()
	if st.AllReduce.Bytes != want {
		t.Errorf("%v allreduce bytes %d, want %d", w, st.AllReduce.Bytes, want)
	}
	if st.AllReduce.Calls != n {
		t.Errorf("%v allreduce calls %d, want %d", w, st.AllReduce.Calls, n)
	}

	send := make([][][]float32, n)
	recv := make([][][]float32, n)
	for r := 0; r < n; r++ {
		send[r] = make([][]float32, n)
		recv[r] = make([][]float32, n)
		for j := 0; j < n; j++ {
			send[r][j] = make([]float32, msg)
			recv[r][j] = make([]float32, msg)
		}
	}
	runRanks(n, func(r int) { g.AllToAllV(r, send[r], recv[r]) })
	if want := int64(n * (n - 1) * wireBytes(w, msg)); world.Snapshot().AllToAll.Bytes != want {
		t.Errorf("%v alltoall bytes %d, want %d (self payloads must be free)", w, world.Snapshot().AllToAll.Bytes, want)
	}
	return st.AllReduce.ModelSec
}

// TestRendezvousCounts pins the schedule's rendezvous on every wire
// format, read off the group barrier's generation: an all-reduce over n
// ranks takes n-1 reduce-scatter steps plus two for the gather, and an
// all-to-all takes two.
func TestRendezvousCounts(t *testing.T) {
	for _, w := range wireFormats() {
		for _, n := range []int{2, 3, 4} {
			g := NewWorld(n, PerfectLink()).NewGroup()
			g.SetWire(w)
			bufs := make([][]float32, n)
			send := make([][][]float32, n)
			recv := make([][][]float32, n)
			for r := 0; r < n; r++ {
				bufs[r] = make([]float32, 100)
				send[r] = make([][]float32, n)
				recv[r] = make([][]float32, n)
				for j := 0; j < n; j++ {
					send[r][j] = make([]float32, 10)
					recv[r][j] = make([]float32, 10)
				}
			}
			runRanks(n, func(r int) { g.AllReduce(r, bufs[r]) })
			if got := g.bar.gen; got != uint64(n+1) {
				t.Errorf("%v n=%d: all-reduce took %d rendezvous, want %d", w, n, got, n+1)
			}
			before := g.bar.gen
			runRanks(n, func(r int) { g.AllToAllV(r, send[r], recv[r]) })
			if got := g.bar.gen - before; got != 2 {
				t.Errorf("%v n=%d: all-to-all took %d rendezvous, want 2", w, n, got)
			}
		}
	}
}

// TestThrottledLinkModelsTime checks that a finite link accumulates
// modeled wire seconds while the perfect link stays at zero.
func TestThrottledLinkModelsTime(t *testing.T) {
	const n, size = 2, 1 << 12
	run := func(link Link) Totals {
		w := NewWorld(n, link)
		g := w.NewGroup()
		bufs := make([][]float32, n)
		for r := range bufs {
			bufs[r] = make([]float32, size)
		}
		runRanks(n, func(r int) { g.AllReduce(r, bufs[r]) })
		return w.Snapshot()
	}
	if st := run(PerfectLink()); st.AllReduce.ModelSec != 0 {
		t.Errorf("perfect link charged %v sec", st.AllReduce.ModelSec)
	}
	link := LinkFor(hw.BigBasin()) // NVLink fabric
	st := run(link)
	bytesPerRank := float64(2*(n-1)*size*4) / n
	want := float64(n) * (2*(n-1)*link.LatencySec + bytesPerRank/link.BandwidthBps)
	if st.AllReduce.ModelSec <= 0 || math.Abs(st.AllReduce.ModelSec-want)/want > 0.01 {
		t.Errorf("modeled %v sec, want ~%v", st.AllReduce.ModelSec, want)
	}
	if cpu := LinkFor(hw.DualSocketCPU()); cpu.Name != hw.DualSocketCPU().NIC.Name {
		t.Errorf("CPU platform link should be the NIC, got %s", cpu.Name)
	}
}

// TestConcurrentGroups runs two collectives in flight at once on separate
// groups, the pattern the hybrid trainer uses to overlap its dense
// all-reduce with the sparse-gradient all-to-all.
func TestConcurrentGroups(t *testing.T) {
	const n, size = 3, 256
	w := NewWorld(n, PerfectLink())
	ga, gb := w.NewGroup(), w.NewGroup()
	a := make([][]float32, n)
	b := make([][]float32, n)
	for r := 0; r < n; r++ {
		a[r] = make([]float32, size)
		b[r] = make([]float32, size)
		for i := range a[r] {
			a[r][i] = 1
			b[r][i] = 2
		}
	}
	runRanks(n, func(r int) {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ga.AllReduce(r, a[r])
		}()
		gb.AllReduce(r, b[r])
		wg.Wait()
	})
	for r := 0; r < n; r++ {
		if a[r][0] != n || b[r][0] != 2*n {
			t.Fatalf("rank %d: a=%v b=%v", r, a[r][0], b[r][0])
		}
	}
}
