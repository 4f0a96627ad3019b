package collective

import (
	"errors"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestParseFaultSchedule(t *testing.T) {
	fs, err := ParseFaultSchedule("kill:1@12, delay:0@5+2ms ,fail:2@30")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != 3 || fs.pending.Load() != 3 {
		t.Fatalf("len=%d pending=%d, want 3/3", fs.Len(), fs.pending.Load())
	}
	// Schedule sorts by step: delay@5, kill@12, fail@30.
	if got := fs.String(); got != "delay:0@5+2ms,kill:1@12,fail:2@30" {
		t.Fatalf("round-trip = %q", got)
	}

	if fs, err := ParseFaultSchedule(""); err != nil || fs.Len() != 0 {
		t.Fatalf("empty schedule: %v (len %d)", err, fs.Len())
	}
	for _, bad := range []string{"boom:1@2", "kill:1", "kill:x@2", "kill:1@y", "delay:1@2", "delay:1@2+x", "kill:-1@2", "kill:1@-2"} {
		if _, err := ParseFaultSchedule(bad); err == nil {
			t.Errorf("ParseFaultSchedule(%q) accepted bad input", bad)
		}
	}
}

// FuzzParseFaultSchedule feeds arbitrary -faults strings to the parser:
// it must return an error rather than panic, and a schedule it accepts
// must parse back from its own String() to the same faults.
func FuzzParseFaultSchedule(f *testing.F) {
	for _, s := range []string{
		"", "kill:1@12, delay:0@5+2ms ,fail:2@30", ",,fail:0@0,", "kill:+1@+2",
		"delay:3@7+1h2m3.5s", "delay:0@1+-0s", "delay:0@0+9223372036854775807ns",
		"kill:9223372036854775807@9223372036854775807", "kill:1@2+3ms", "delay:1@2",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fs, err := ParseFaultSchedule(s)
		if err != nil {
			return
		}
		again, err := ParseFaultSchedule(fs.String())
		if err != nil {
			t.Fatalf("%q: its String() %q does not parse: %v", s, fs.String(), err)
		}
		if !slices.Equal(again.faults, fs.faults) {
			t.Fatalf("%q parses to %v, its String() %q to %v", s, fs.faults, fs.String(), again.faults)
		}
	})
}

// TestSetFaultsRefusesRankOutsideWorld: a fault on rank n of an n-rank
// world could never fire, so arming it is an error and leaves the world
// unarmed.
func TestSetFaultsRefusesRankOutsideWorld(t *testing.T) {
	w := NewWorld(2, PerfectLink())
	if err := w.SetFaults(NewFaultSchedule(Fault{Kind: FaultKill, Rank: 2, Step: 5})); err == nil {
		t.Fatal("kill on rank 2 of a 2-rank world accepted")
	}
	if w.faults != nil {
		t.Fatal("refused schedule was armed")
	}
	if err := w.SetFaults(NewFaultSchedule(Fault{Kind: FaultKill, Rank: 1, Step: 5})); err != nil {
		t.Fatal(err)
	}
}

func TestKillAbortsAllRanks(t *testing.T) {
	const n = 4
	w := NewWorld(n, PerfectLink())
	w.SetFaults(NewFaultSchedule(Fault{Kind: FaultKill, Rank: 2, Step: 3}))
	g := w.NewGroup()

	errs := make([]error, n)
	bufs := make([][]float32, n)
	for r := range bufs {
		bufs[r] = make([]float32, 8)
	}
	for step := 0; step < 5; step++ {
		w.BeginStep(step)
		var wg sync.WaitGroup
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				errs[r] = g.AllReduce(r, bufs[r])
			}(r)
		}
		wg.Wait()
		if step < 3 {
			for r, err := range errs {
				if err != nil {
					t.Fatalf("step %d rank %d failed early: %v", step, r, err)
				}
			}
			continue
		}
		// The kill step and every later op fail on every rank.
		for r, err := range errs {
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("step %d rank %d: %v, want RankError", step, r, err)
			}
			if re.Rank != 2 || re.Kind != FaultKill || re.Step != 3 {
				t.Fatalf("step %d rank %d: %+v", step, r, re)
			}
		}
	}
	if p := w.faults.pending.Load(); p != 0 {
		t.Fatalf("fault did not mark fired (pending %d)", p)
	}
}

func TestKillPropagatesAcrossGroups(t *testing.T) {
	const n = 2
	w := NewWorld(n, PerfectLink())
	w.SetFaults(NewFaultSchedule(Fault{Kind: FaultKill, Rank: 0, Step: 0}))
	main, side := w.NewGroup(), w.NewGroup()
	w.BeginStep(0)

	// Rank 1 blocks on the side group; rank 0's kill on the main group
	// must unblock it with the same error.
	var wg sync.WaitGroup
	var sideErr, mainErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		sideErr = side.AllReduce(1, make([]float32, 4))
	}()
	go func() {
		defer wg.Done()
		mainErr = main.AllReduce(0, make([]float32, 4))
	}()
	wg.Wait()
	if !errors.As(mainErr, new(*RankError)) {
		t.Fatalf("killed rank got %v", mainErr)
	}
	if !errors.As(sideErr, new(*RankError)) {
		t.Fatalf("bystander group wait got %v, want RankError", sideErr)
	}
	if !errors.Is(sideErr, mainErr) {
		t.Fatalf("groups aborted with different errors: %v vs %v", sideErr, mainErr)
	}
}

func TestDelayFaultIsNotAnError(t *testing.T) {
	const n = 2
	w := NewWorld(n, PerfectLink())
	w.SetFaults(NewFaultSchedule(Fault{Kind: FaultDelay, Rank: 1, Step: 0, Delay: 20 * time.Millisecond}))
	g := w.NewGroup()
	w.BeginStep(0)

	start := time.Now()
	bufs := [][]float32{{1, 2}, {3, 4}}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = g.AllReduce(r, bufs[r])
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("delay fault did not stall: %v", elapsed)
	}
	for r := range bufs {
		if bufs[r][0] != 4 || bufs[r][1] != 6 {
			t.Fatalf("rank %d result %v after delay, want [4 6]", r, bufs[r])
		}
	}
}

func TestFailFaultFiresOnce(t *testing.T) {
	const n = 2
	fs := NewFaultSchedule(Fault{Kind: FaultFail, Rank: 0, Step: 2})

	run := func(w *World) []error {
		g := w.NewGroup()
		errs := make([]error, n)
		for step := 0; step < 4; step++ {
			w.BeginStep(step)
			var wg sync.WaitGroup
			for r := 0; r < n; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					err := g.AllReduce(r, make([]float32, 1))
					if errs[r] == nil {
						errs[r] = err
					}
				}(r)
			}
			wg.Wait()
		}
		return errs
	}

	w1 := NewWorld(n, PerfectLink())
	w1.SetFaults(fs)
	errs := run(w1)
	for r, err := range errs {
		var re *RankError
		if !errors.As(err, &re) || re.Kind != FaultFail {
			t.Fatalf("first world rank %d: %v, want fail RankError", r, err)
		}
	}

	// A rebuilt world sharing the schedule replays the same steps
	// without re-firing the fault — the recovery run survives.
	w2 := NewWorld(n, PerfectLink())
	w2.SetFaults(fs)
	for r, err := range run(w2) {
		if err != nil {
			t.Fatalf("rebuilt world rank %d re-hit the fault: %v", r, err)
		}
	}
}

func TestFaultClockGatesFiring(t *testing.T) {
	w := NewWorld(1, PerfectLink())
	w.SetFaults(NewFaultSchedule(Fault{Kind: FaultKill, Rank: 0, Step: 10}))
	g := w.NewGroup()
	w.BeginStep(9)
	if err := g.AllReduce(0, nil); err != nil {
		t.Fatalf("fault fired before its step: %v", err)
	}
	w.BeginStep(10)
	if err := g.AllReduce(0, nil); err == nil {
		t.Fatal("fault did not fire at its step")
	}
	if got := w.step.Load(); got != 10 {
		t.Fatalf("fault clock = %d, want 10", got)
	}
}

func TestUnfaultedHotPathStaysCheap(t *testing.T) {
	// With no schedule armed (or all faults fired) the per-op fault
	// check must not allocate.
	w := NewWorld(1, PerfectLink())
	g := w.NewGroup()
	buf := make([]float32, 16)
	allocs := testing.AllocsPerRun(100, func() {
		if err := g.AllReduce(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unfaulted AllReduce allocates %.1f/op", allocs)
	}

	// All faults fired: the pending counter reaches zero and the check
	// takes the same fast path.
	w.SetFaults(NewFaultSchedule(Fault{Kind: FaultDelay, Rank: 0, Step: 0}))
	if err := g.AllReduce(0, buf); err != nil {
		t.Fatal(err)
	}
	if p := w.faults.pending.Load(); p != 0 {
		t.Fatalf("delay fault did not fire (pending %d)", p)
	}
	allocs = testing.AllocsPerRun(100, func() {
		if err := g.AllReduce(0, buf); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AllReduce after every fault fired allocates %.1f/op", allocs)
	}
}
