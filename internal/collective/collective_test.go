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

func TestAllReduceMatchesSerialSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		for _, size := range []int{0, 1, 5, 64, 1000} {
			rng := xrand.New(int64(n*1000 + size))
			in := make([][]float32, n)
			want := make([]float32, size)
			for r := range in {
				in[r] = make([]float32, size)
				for i := range in[r] {
					in[r][i] = float32(rng.Norm())
					want[i] += in[r][i]
				}
			}
			w := NewWorld(n, PerfectLink())
			g := w.NewGroup()
			runRanks(n, func(r int) { g.AllReduce(r, in[r]) })
			for r := 0; r < n; r++ {
				for i := range want {
					if math.Abs(float64(in[r][i]-want[i])) > 1e-4 {
						t.Fatalf("n=%d size=%d rank %d elem %d: got %v want %v",
							n, size, r, i, in[r][i], want[i])
					}
				}
				// Every rank must hold the bit-identical reduced vector.
				for i := range want {
					if in[r][i] != in[0][i] {
						t.Fatalf("n=%d size=%d: ranks 0 and %d disagree at %d", n, size, r, i)
					}
				}
			}
		}
	}
}

// TestAllReduceDeterministic checks bit-identical results across repeated
// runs: the ring applies contributions in a fixed order, so goroutine
// scheduling must not leak into the floats.
func TestAllReduceDeterministic(t *testing.T) {
	const n, size = 4, 1003
	mk := func() [][]float32 {
		rng := xrand.New(42)
		in := make([][]float32, n)
		for r := range in {
			in[r] = make([]float32, size)
			for i := range in[r] {
				in[r][i] = float32(rng.Norm())
			}
		}
		return in
	}
	first := mk()
	w := NewWorld(n, PerfectLink())
	g := w.NewGroup()
	runRanks(n, func(r int) { g.AllReduce(r, first[r]) })
	for trial := 0; trial < 3; trial++ {
		in := mk()
		w2 := NewWorld(n, PerfectLink())
		g2 := w2.NewGroup()
		runRanks(n, func(r int) { g2.AllReduce(r, in[r]) })
		for r := 0; r < n; r++ {
			for i := range in[r] {
				if in[r][i] != first[r][i] {
					t.Fatalf("trial %d rank %d elem %d: %v != %v", trial, r, i, in[r][i], first[r][i])
				}
			}
		}
	}
}

func TestAllToAllV(t *testing.T) {
	const n = 4
	w := NewWorld(n, PerfectLink())
	g := w.NewGroup()
	// Rank r sends to rank j a payload of length r+j+1 filled with
	// 100*r+j; verify every rank receives what each peer addressed to it.
	send := make([][][]float32, n)
	recv := make([][][]float32, n)
	for r := 0; r < n; r++ {
		send[r] = make([][]float32, n)
		recv[r] = make([][]float32, n)
		for j := 0; j < n; j++ {
			send[r][j] = make([]float32, r+j+1)
			for i := range send[r][j] {
				send[r][j][i] = float32(100*r + j)
			}
			recv[r][j] = make([]float32, j+r+1)
		}
	}
	runRanks(n, func(r int) { g.AllToAllV(r, send[r], recv[r]) })
	for r := 0; r < n; r++ {
		for j := 0; j < n; j++ {
			want := float32(100*j + r)
			if len(recv[r][j]) != j+r+1 {
				t.Fatalf("rank %d from %d: length %d", r, j, len(recv[r][j]))
			}
			for i, v := range recv[r][j] {
				if v != want {
					t.Fatalf("rank %d from %d elem %d: got %v want %v", r, j, i, v, want)
				}
			}
		}
	}
}

// TestMeters pins the byte accounting against the analytic collective
// volumes: ring all-reduce moves 2·(n-1)·size floats in total, an
// all-to-all moves every cross-rank payload exactly once.
func TestMeters(t *testing.T) {
	const n, size = 4, 1000
	w := NewWorld(n, PerfectLink())
	g := w.NewGroup()
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, size)
	}
	runRanks(n, func(r int) { g.AllReduce(r, bufs[r]) })
	st := w.Snapshot()
	if want := int64(2 * (n - 1) * size * 4); st.AllReduce.Bytes != want {
		t.Errorf("allreduce bytes %d, want %d", st.AllReduce.Bytes, want)
	}
	if st.AllReduce.Calls != n {
		t.Errorf("allreduce calls %d, want %d", st.AllReduce.Calls, n)
	}

	const msg = 25
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
	st = w.Snapshot()
	if want := int64(n * (n - 1) * msg * 4); st.AllToAll.Bytes != want {
		t.Errorf("alltoall bytes %d, want %d (self payloads must be free)", st.AllToAll.Bytes, want)
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
