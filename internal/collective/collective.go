// Package collective implements the communication substrate of the
// synchronous hybrid-parallel trainer (internal/hybrid): an in-process
// communicator over N ranks (goroutines) providing the collectives the
// paper's scale-out analysis is built on — ring all-reduce for the
// data-parallel MLP gradients and all-to-all(v) for the model-parallel
// pooled-embedding exchange.
//
// Ranks publish deposits (see wire.go) and rendezvous at a reusable
// barrier, so payloads move with plain copies or codec passes under
// happens-before edges (race-free under -race). Each collective has one
// schedule for every wire format, and every reduction applies
// contributions in a fixed ring order, making results bit-identical
// across runs regardless of goroutine scheduling. Every operation meters
// the bytes that cross rank boundaries and the seconds a pluggable Link
// (bandwidth + latency, see LinkFor) would have charged for them; the
// meters are what ties the analytic collective-volume formulas in
// internal/perfmodel to observed traffic.
package collective

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// Op identifies one collective operation kind in the meters.
type Op int

const (
	OpAllReduce Op = iota
	OpAllToAll
	numOps
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpAllReduce:
		return "allreduce"
	case OpAllToAll:
		return "alltoall"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// OpStats is the cumulative meter of one operation kind, summed across
// ranks: Calls counts per-rank invocations, Bytes counts payload bytes
// that crossed a rank boundary (self-destined data is free), and
// ModelSec is the total wire time the communicator's Link would have
// charged (per-rank busy time; divide by the rank count for the
// wall-clock view of a symmetric collective).
type OpStats struct {
	Calls    int64
	Bytes    int64
	ModelSec float64
}

// opMeter is the lock-free accumulator behind OpStats. Since PR 6 the
// instruments live in a telemetry.Registry ("collective/<op>/calls",
// ".../bytes", ".../model_ns"); the pointers are resolved once at world
// construction so the record path stays a few atomic adds.
type opMeter struct {
	calls   *telemetry.Counter
	bytes   *telemetry.Counter
	modelNs *telemetry.Counter
}

func newOpMeter(reg *telemetry.Registry, op Op) opMeter {
	prefix := "collective/" + op.String()
	return opMeter{
		calls:   reg.Counter(prefix + "/calls"),
		bytes:   reg.Counter(prefix + "/bytes"),
		modelNs: reg.Counter(prefix + "/model_ns"),
	}
}

func (c *opMeter) add(bytes int64, modelSec float64) {
	c.calls.Inc()
	c.bytes.Add(bytes)
	c.modelNs.Add(int64(modelSec * 1e9))
}

func (c *opMeter) load() OpStats {
	return OpStats{
		Calls:    c.calls.Load(),
		Bytes:    c.bytes.Load(),
		ModelSec: float64(c.modelNs.Load()) / 1e9,
	}
}

// Totals is an allocation-free snapshot of every operation meter.
type Totals struct {
	AllReduce OpStats
	AllToAll  OpStats
}

// World is a communicator over n ranks sharing one Link and one set of
// meters. Collectives run on Groups (see NewGroup); concurrent
// collectives must use distinct groups.
//
// A world can be armed with a FaultSchedule (SetFaults): collectives
// then check for due faults on entry, and a kill or fail fault aborts
// every group, unblocking all ranks with a RankError. See fault.go.
type World struct {
	n     int
	link  Link
	stats [numOps]opMeter
	// rankWait[k] accumulates the nanoseconds rank k spent blocked at
	// collective rendezvous points ("collective/rank<k>/wait_ns"). A
	// straggler arrives at every barrier last, so it waits the least
	// while its peers absorb its lateness — the asymmetry the imbalance
	// detector reads. Synchronous collectives equalize per-rank *span*
	// durations, so this is the only place the skew is visible.
	rankWait []*telemetry.Counter

	mu     sync.Mutex
	groups []*Group
	faults *FaultSchedule
	step   atomic.Int64
}

// NewWorld builds a communicator over n ranks with a private telemetry
// registry (use NewWorldWith to share one).
func NewWorld(n int, link Link) *World {
	return NewWorldWith(n, link, telemetry.NewRegistry())
}

// NewWorldWith builds a communicator whose meters live in the given
// registry, so collective traffic shows up in the process-wide snapshot
// next to ingest and trainer counters. A nil registry meters nothing.
func NewWorldWith(n int, link Link, reg *telemetry.Registry) *World {
	if n <= 0 {
		panic(fmt.Sprintf("collective: world size %d", n))
	}
	w := &World{n: n, link: link, rankWait: make([]*telemetry.Counter, n)}
	for op := Op(0); op < numOps; op++ {
		w.stats[op] = newOpMeter(reg, op)
	}
	for k := 0; k < n; k++ {
		w.rankWait[k] = reg.Counter(fmt.Sprintf("collective/rank%d/wait_ns", k))
	}
	return w
}

// Snapshot returns the cumulative meters without allocating.
func (w *World) Snapshot() Totals {
	return Totals{
		AllReduce: w.stats[OpAllReduce].load(),
		AllToAll:  w.stats[OpAllToAll].load(),
	}
}

// NewGroup mints an independent rendezvous context. Every rank must call
// the same sequence of collectives on a group; two goroutines of the same
// rank may run collectives concurrently as long as they use different
// groups (the hybrid trainer overlaps its dense all-reduce with the
// sparse-gradient all-to-all this way).
func (w *World) NewGroup() *Group {
	g := &Group{w: w, dep: make([][]deposit, w.n)}
	for r := range g.dep {
		g.dep[r] = make([]deposit, w.n)
	}
	g.bar.n = w.n
	g.bar.cond = sync.NewCond(&g.bar.mu)
	w.mu.Lock()
	w.groups = append(w.groups, g)
	w.mu.Unlock()
	return g
}

// barrier is a reusable cyclic barrier over n goroutines. sync.Cond keeps
// the wait allocation-free, which matters for the trainer's steady-state
// zero-allocation budget.
//
// The barrier is abortable: abort stores a sticky error, wakes every
// waiter, and makes all later waits fail fast. That is the mechanism
// that turns one rank's fault into a prompt, clean error on every rank
// instead of a deadlock at the next rendezvous.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
	err   error // sticky abort reason; set once
}

func (b *barrier) wait() error {
	if b.n == 1 {
		// Single-rank fast path: no rendezvous, but still observe abort.
		b.mu.Lock()
		err := b.err
		b.mu.Unlock()
		return err
	}
	b.mu.Lock()
	if b.err != nil {
		err := b.err
		b.mu.Unlock()
		return err
	}
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen && b.err == nil {
			b.cond.Wait()
		}
	}
	err := b.err
	b.mu.Unlock()
	return err
}

// abort poisons the barrier with err (first abort wins) and wakes every
// waiter. All current and future waits return the error.
func (b *barrier) abort(err error) {
	b.mu.Lock()
	if b.err == nil {
		b.err = err
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Group is one rendezvous context of a World (see World.NewGroup).
type Group struct {
	w       *World
	bar     barrier
	unmeter bool       // see MeterWaits
	wire    WireFormat // see SetWire
	// dep[r] holds rank r's deposits: one per peer in an all-to-all,
	// and the two ring slots 0 and 1 in an all-reduce (n ≥ 2 whenever
	// a deposit is made).
	dep [][]deposit
}

// MeterWaits controls whether this group's rendezvous waits feed the
// per-rank wait meters (on by default). Turn it off for groups whose
// collectives run on background goroutines (the hybrid trainer's
// overlapped all-reduce): their waits are hidden under compute, not on
// the rank's critical path, and counting them would misread a balanced
// overlapped run as straggling.
func (g *Group) MeterWaits(on bool) { g.unmeter = !on }

// wait times one barrier rendezvous on behalf of rank, charging the
// blocked nanoseconds to the rank's wait meter (two monotonic clock
// reads; no allocation, so the zero-alloc step budget holds).
func (g *Group) wait(rank int) error {
	if g.unmeter {
		return g.bar.wait()
	}
	start := telemetry.Now()
	err := g.bar.wait()
	g.w.rankWait[rank].Add(telemetry.Now() - start)
	return err
}

// chunkRange returns the [lo, hi) element range of ring chunk k when a
// size-element buffer is split across n ranks. Chunks are contiguous and
// within one element of each other, so no padding bytes are moved and the
// metered volume matches the analytic 2·(n-1)/n·size formula exactly.
func chunkRange(size, n, k int) (int, int) {
	return k * size / n, (k + 1) * size / n
}

// AllReduce sums buf element-wise across all ranks, leaving the identical
// reduced vector in every rank's buf. All ranks must pass buffers of
// equal length. The schedule is the same on every wire format:
//
//   - Reduce-scatter, n-1 steps of one rendezvous each. At step s each
//     rank deposits chunk (rank-s) in ring slot s%2, and its successor
//     accumulates that deposit into its own chunk. The two slots
//     alternate, so the rendezvous that publishes step s also retires
//     the reads of step s-1. Contributions are applied in fixed ring
//     order, so the result is bit-identical across runs.
//   - Gather, two rendezvous. Each owner deposits its fully reduced
//     chunk (rank+1) once and decodes its own deposit back into buf,
//     and every peer decodes those same bytes, so the replicas stay
//     bit-identical across ranks under a lossy wire too (the elastic
//     trainer's replica fingerprints rely on it).
//
// That is n+1 rendezvous. The metered volume matches the ring's
// analytic 2·(n-1)/n·size·bytes-per-element, and the modeled time keeps
// its 2·(n-1) messages.
//
// A non-nil error means the world aborted (injected fault or AbortAll);
// buf contents are then unspecified and the group is poisoned.
func (g *Group) AllReduce(rank int, buf []float32) error {
	if err := g.w.checkFault(rank); err != nil {
		return err
	}
	n := g.w.n
	if n == 1 {
		g.w.stats[OpAllReduce].add(0, 0)
		return nil
	}
	size := len(buf)
	mine, prev := g.dep[rank], g.dep[(rank-1+n)%n]
	var moved int64
	for s := 0; s < n-1; s++ {
		lo, hi := chunkRange(size, n, (rank-s+n)%n)
		mine[s%2].encode(g.wire, buf[lo:hi])
		if err := g.wait(rank); err != nil {
			return err
		}
		lo, hi = chunkRange(size, n, (rank-1-s+n)%n)
		moved += prev[s%2].accumulate(g.wire, buf[lo:hi])
	}
	slot := (n - 1) % 2
	lo, hi := chunkRange(size, n, (rank+1)%n)
	mine[slot].encode(g.wire, buf[lo:hi])
	mine[slot].decode(g.wire, buf[lo:hi])
	if err := g.wait(rank); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		if j != rank {
			lo, hi := chunkRange(size, n, (j+1)%n)
			moved += g.dep[j][slot].decode(g.wire, buf[lo:hi])
		}
	}
	if err := g.wait(rank); err != nil {
		return err
	}
	g.w.stats[OpAllReduce].add(moved, g.w.link.xferSec(moved, 2*(n-1)))
	return nil
}

// AllToAllV exchanges variable-length payloads: send[j] travels to rank
// j, and recv[j] is filled with what rank j addressed to this rank.
// len(recv[j]) must equal len(send[j']) as declared by rank j for this
// rank. Each rank deposits its outgoing payloads, and after one
// rendezvous every receiver decodes its peers' deposits straight into
// recv; a second rendezvous retires the reads. The self-addressed
// payload is a plain fp32 copy: it never crosses a rank boundary, so it
// is neither metered nor compressed.
func (g *Group) AllToAllV(rank int, send, recv [][]float32) error {
	if err := g.w.checkFault(rank); err != nil {
		return err
	}
	n := g.w.n
	if len(send) != n || len(recv) != n {
		panic(fmt.Sprintf("collective: alltoallv needs %d send/recv slots, got %d/%d", n, len(send), len(recv)))
	}
	mine := g.dep[rank]
	for j := 0; j < n; j++ {
		if j != rank {
			mine[j].encode(g.wire, send[j])
		}
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
		if j != rank {
			moved += g.dep[j][rank].decode(g.wire, recv[j])
		}
	}
	if err := g.wait(rank); err != nil {
		return err
	}
	g.w.stats[OpAllToAll].add(moved, g.w.link.xferSec(moved, n-1))
	return nil
}
