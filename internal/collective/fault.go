package collective

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FaultKind classifies an injected fault.
type FaultKind uint8

const (
	// FaultKill simulates a rank dying: the first collective the rank
	// enters at (or after) the scheduled step aborts every group of the
	// world with a RankError, and the op returns that error on all
	// ranks. The killed rank's goroutine is expected to exit its loop.
	FaultKill FaultKind = iota
	// FaultDelay stalls the rank for the configured duration before the
	// op proceeds — a straggler, not a failure. Peers block at the
	// rendezvous for the duration; no error is raised.
	FaultDelay
	// FaultFail makes one collective op fail on the scheduled rank.
	// Collectives cannot partially complete, so the failure propagates:
	// all groups abort and every rank's op returns the RankError.
	FaultFail
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultKill:
		return "kill"
	case FaultDelay:
		return "delay"
	case FaultFail:
		return "fail"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault is one scheduled fault: Kind strikes Rank at the first
// collective entered at step >= Step (steps come from World.BeginStep).
type Fault struct {
	Kind  FaultKind
	Rank  int
	Step  int
	Delay time.Duration // FaultDelay only
}

// String renders the fault in the schedule syntax.
func (f Fault) String() string {
	s := fmt.Sprintf("%s:%d@%d", f.Kind, f.Rank, f.Step)
	if f.Kind == FaultDelay {
		s += "+" + f.Delay.String()
	}
	return s
}

// RankError is the error a faulted collective raises on every rank of
// the world: rank Rank suffered a Kind fault at step Step. The hybrid
// trainer uses it to decide recovery (rollback + rebuild).
type RankError struct {
	Rank int
	Step int
	Kind FaultKind
}

// Error implements error.
func (e *RankError) Error() string {
	return fmt.Sprintf("collective: rank %d %s fault at step %d", e.Rank, e.Kind, e.Step)
}

// FaultSchedule is a set of step-triggered faults shared by one or more
// worlds. Each fault fires exactly once per schedule lifetime — fired
// flags survive a trainer rebuild, so a deterministic replay through the
// same steps does not re-trigger the fault it is recovering from.
//
// The zero-pending fast path is a single atomic load, keeping the
// fault seam free on unfaulted hot paths.
type FaultSchedule struct {
	mu      sync.Mutex
	faults  []Fault
	fired   []bool
	pending atomic.Int32
}

// NewFaultSchedule builds a schedule from explicit faults.
func NewFaultSchedule(faults ...Fault) *FaultSchedule {
	fs := &FaultSchedule{
		faults: append([]Fault(nil), faults...),
		fired:  make([]bool, len(faults)),
	}
	sort.SliceStable(fs.faults, func(i, j int) bool { return fs.faults[i].Step < fs.faults[j].Step })
	fs.pending.Store(int32(len(faults)))
	return fs
}

// ParseFaultSchedule parses the -faults flag syntax: a comma-separated
// list of kind:rank@step items, where kind is kill, fail, or
// delay (delay takes a duration suffix, +<dur>):
//
//	kill:1@12          rank 1 dies at step 12
//	delay:0@5+2ms      rank 0 stalls 2ms at step 5
//	fail:2@30          rank 2's collective op fails at step 30
//
// An empty string parses to an empty schedule.
func ParseFaultSchedule(s string) (*FaultSchedule, error) {
	var faults []Fault
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		kindStr, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("collective: fault %q: want kind:rank@step", item)
		}
		var f Fault
		switch kindStr {
		case "kill":
			f.Kind = FaultKill
		case "fail":
			f.Kind = FaultFail
		case "delay":
			f.Kind = FaultDelay
		default:
			return nil, fmt.Errorf("collective: fault %q: unknown kind %q (kill, fail, delay)", item, kindStr)
		}
		rankStr, stepStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("collective: fault %q: want kind:rank@step", item)
		}
		rank, err := strconv.Atoi(rankStr)
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("collective: fault %q: bad rank %q", item, rankStr)
		}
		f.Rank = rank
		if f.Kind == FaultDelay {
			stepPart, durPart, ok := strings.Cut(stepStr, "+")
			if !ok {
				return nil, fmt.Errorf("collective: fault %q: delay needs +<duration>", item)
			}
			d, err := time.ParseDuration(durPart)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("collective: fault %q: bad duration %q", item, durPart)
			}
			f.Delay = d
			stepStr = stepPart
		}
		step, err := strconv.Atoi(stepStr)
		if err != nil || step < 0 {
			return nil, fmt.Errorf("collective: fault %q: bad step %q", item, stepStr)
		}
		f.Step = step
		faults = append(faults, f)
	}
	return NewFaultSchedule(faults...), nil
}

// String renders the schedule in the parseable syntax.
func (fs *FaultSchedule) String() string {
	if fs == nil {
		return ""
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	parts := make([]string, len(fs.faults))
	for i, f := range fs.faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Len returns the total number of scheduled faults.
func (fs *FaultSchedule) Len() int {
	if fs == nil {
		return 0
	}
	return len(fs.faults)
}

// next pops the first unfired fault for rank due at or before step, or
// returns false. Firing is permanent: the fault never triggers again,
// even if the schedule outlives a trainer rebuild that replays the step.
func (fs *FaultSchedule) next(rank, step int) (Fault, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for i, f := range fs.faults {
		if fs.fired[i] || f.Rank != rank || step < f.Step {
			continue
		}
		fs.fired[i] = true
		fs.pending.Add(-1)
		return f, true
	}
	return Fault{}, false
}

// CheckRanks refuses a schedule that names a rank outside an n-rank
// world, since that fault could never fire. A nil schedule passes.
func (fs *FaultSchedule) CheckRanks(n int) error {
	if fs == nil {
		return nil
	}
	for _, f := range fs.faults {
		if f.Rank >= n {
			return fmt.Errorf("collective: fault %s targets rank %d of a %d-rank world", f, f.Rank, n)
		}
	}
	return nil
}

// SetFaults arms a fault schedule on the world. Passing nil disarms.
// Arm before launching rank goroutines; the schedule may be shared by
// successive worlds (rebuilds) so fired faults stay fired. A schedule
// that fails CheckRanks is refused.
func (w *World) SetFaults(fs *FaultSchedule) error {
	if err := fs.CheckRanks(w.n); err != nil {
		return err
	}
	w.faults = fs
	return nil
}

// BeginStep advances the world's fault clock: faults scheduled at or
// before step become eligible to fire on their rank's next collective.
// The trainer calls it once per training step from the control thread.
func (w *World) BeginStep(step int) { w.step.Store(int64(step)) }

// checkFault fires at most one due fault for rank. Kill and fail faults
// abort every group of the world and return the RankError; delay faults
// sleep and return nil. The no-pending fast path is one atomic load.
func (w *World) checkFault(rank int) error {
	fs := w.faults
	if fs == nil || fs.pending.Load() == 0 {
		return nil
	}
	f, ok := fs.next(rank, int(w.step.Load()))
	if !ok {
		return nil
	}
	if f.Kind == FaultDelay {
		time.Sleep(f.Delay)
		return nil
	}
	err := &RankError{Rank: f.Rank, Step: int(w.step.Load()), Kind: f.Kind}
	w.AbortAll(err)
	return err
}

// AbortAll poisons every group of the world: blocked collectives unblock
// immediately and return err, and every later collective on any group
// returns err without rendezvousing. Recovery rebuilds the world.
func (w *World) AbortAll(err error) {
	w.mu.Lock()
	groups := w.groups
	w.mu.Unlock()
	for _, g := range groups {
		g.bar.abort(err)
	}
}
