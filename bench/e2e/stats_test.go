package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	// The highest percentile that still has ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 3, 2, 4}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	if got := median([]float64{1, 2}); got != 1.5 {
		t.Errorf("median(1,2) = %v, want 1.5", got)
	}
}

func TestBestWindowRate(t *testing.T) {
	const ms = int64(1e6)
	// 10 units of work per step. The fastest two consecutive steps are
	// the 1 ms pair in the middle, which no window aligned to the start
	// would hold.
	steps := []int64{4 * ms, 2 * ms, ms, ms, 2 * ms, 4 * ms, 4 * ms}
	if got, want := bestWindowRate(steps, 10, 2), 20/0.002; math.Abs(got-want) > 1e-6 {
		t.Errorf("best two steps = %v, want %v", got, want)
	}
	if got, want := bestWindowRate(steps, 10, 4), 40/0.006; math.Abs(got-want) > 1e-6 {
		t.Errorf("best four steps = %v, want %v", got, want)
	}
	// One disturbed stretch does not move the result.
	quiet := bestWindowRate([]int64{ms, ms, ms, ms}, 10, 2)
	noisy := bestWindowRate([]int64{ms, ms, 9 * ms, 9 * ms}, 10, 2)
	if quiet != noisy {
		t.Errorf("a slow stretch moved the best window: %v != %v", noisy, quiet)
	}
	// A periodic cost (every third step takes 5 ms) is in every window
	// that spans a whole period, wherever the window starts.
	periodic := []int64{ms, ms, 5 * ms, ms, ms, 5 * ms, ms, ms, 5 * ms}
	if got, want := bestWindowRate(periodic, 10, 3), 30/0.007; math.Abs(got-want) > 1e-6 {
		t.Errorf("periodic cost = %v, want %v", got, want)
	}
	// Fewer steps than a window: one window over everything.
	if got, want := bestWindowRate([]int64{ms, 3 * ms}, 10, 160), 20/0.004; math.Abs(got-want) > 1e-6 {
		t.Errorf("short run = %v, want %v", got, want)
	}
	if got := bestWindowRate(nil, 10, 20); got != 0 {
		t.Errorf("no steps = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// iteration [0,100] holds fetch [5,25] and step [30,90]; step holds
	// lookup [35,55]. A root span outside the iteration stands alone.
	spans := []span{
		{Name: "iteration", Start: 0, End: 100, Parent: -1},
		{Name: "fetch", Start: 5, End: 25, Parent: 0},
		{Name: "step", Start: 30, End: 90, Parent: 0},
		{Name: "lookup", Start: 35, End: 55, Parent: 2},
		{Name: "generate", Start: 100, End: 140, Parent: -1},
	}
	want := []int64{20, 20, 40, 20, 40}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	// Self times add up to the roots' durations: nothing counted twice.
	if total := sum(got); total != 140 {
		t.Errorf("self times sum to %d, want 140", total)
	}
	by := selfByName(append(spans, span{Name: "fetch", Start: 200, End: 207, Parent: -1}))
	if len(by["fetch"]) != 2 || by["fetch"][1] != 7 {
		t.Errorf("selfByName(fetch) = %v, want [20 7]", by["fetch"])
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if i := off.begin("x", -1, 0); i != -1 {
		t.Errorf("nil tracer returned span %d", i)
	}
	off.end(-1) // must not panic

	tr := newTracer(4)
	root := tr.begin("iteration", -1, 7)
	child := tr.begin("step", root, 7)
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Step != 7 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if tr.spans[1].Start < tr.spans[0].Start || tr.spans[1].End > tr.spans[0].End {
		t.Error("child span is not inside its parent")
	}
}
