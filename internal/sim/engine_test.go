package sim

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Errorf("Now = %v, want horizon 10", e.Now())
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run in scheduling order: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	hits := 0
	var tick func()
	tick = func() {
		hits++
		if hits < 5 {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
	e.Run(100)
	if hits != 5 {
		t.Errorf("hits = %d", hits)
	}
	if e.Now() != 100 {
		t.Errorf("Now = %v", e.Now())
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule(5, func() { ran = true })
	e.Run(3)
	if ran {
		t.Error("event beyond horizon must not run")
	}
	if e.Now() != 3 {
		t.Errorf("Now = %v", e.Now())
	}
	e.Run(6)
	if !ran {
		t.Error("event must run once horizon extends")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().Schedule(-1, func() {})
}

func TestResourceFIFOService(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 1)
	var done []float64
	for i := 0; i < 3; i++ {
		r.Acquire(2, func() { done = append(done, e.Now()) })
	}
	e.Run(100)
	want := []float64{2, 4, 6}
	for i, w := range want {
		if math.Abs(done[i]-w) > 1e-12 {
			t.Errorf("completion %d at %v, want %v", i, done[i], w)
		}
	}
}

func TestResourceParallelServers(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "gpu", 2)
	var done []float64
	for i := 0; i < 4; i++ {
		r.Acquire(3, func() { done = append(done, e.Now()) })
	}
	e.Run(100)
	// Two at t=3, two at t=6.
	if done[0] != 3 || done[1] != 3 || done[2] != 6 || done[3] != 6 {
		t.Errorf("completions = %v", done)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	r.Acquire(4, func() {})
	e.Run(8)
	if u := r.Utilization(); math.Abs(u-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", u)
	}
}

func TestUtilizationClamped(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 1)
	r.Acquire(100, func() {})
	e.Run(1)
	if u := r.Utilization(); u > 1 {
		t.Errorf("Utilization = %v, must clamp to 1", u)
	}
}

func TestResourceCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewEngine(), "bad", 0)
}

// TestMD1QueueWait sanity-checks queueing behavior against the M/D/1
// expectation: with utilization rho, mean wait = rho/(2(1-rho)) * service.
func TestMD1QueueWait(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "q", 1)
	rng := xrand.New(42)
	const service = 1.0
	const rho = 0.7
	n := 20000
	var arrive func()
	count := 0
	var waited float64
	arrive = func() {
		at := e.Now()
		r.Acquire(service, func() { waited += e.Now() - at - service })
		count++
		if count < n {
			e.Schedule(rng.Exp(rho/service), arrive)
		}
	}
	e.Schedule(0, arrive)
	e.Run(math.Inf(1))
	want := rho / (2 * (1 - rho)) * service // ≈ 1.1667
	got := waited / float64(n)
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("M/D/1 mean wait = %v, want ≈ %v", got, want)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []float64 {
		e := NewEngine()
		r := NewResource(e, "x", 2)
		rng := xrand.New(7)
		var times []float64
		for i := 0; i < 50; i++ {
			e.Schedule(rng.Float64()*10, func() {
				r.Acquire(rng.Float64(), func() { times = append(times, e.Now()) })
			})
		}
		e.Run(100)
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay diverged in count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("replay diverged")
		}
	}
}
