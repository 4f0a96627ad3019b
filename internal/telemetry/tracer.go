package telemetry

import (
	"fmt"
	"sort"
)

// Span is one recorded interval on one shard. Start and End are
// nanoseconds since the telemetry epoch (see Now).
type Span struct {
	Phase Phase
	Shard int32
	Start int64
	End   int64
}

// Dur returns the span length in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// StepRecord is one step's clock on one shard: the step's first
// timestamp, then, in order, each phase boundary — the phase that just
// ended and the one clock reading that ends it. The trainer reads the
// clock once per boundary (Start, Mark) and derives every view of the
// step from these readings: the tracer spans (Emit), its wall time and
// per-phase totals (Wall, Phases), and from those its breakdown,
// registry counters and flight-recorder sample. Consecutive phases
// share their boundary, so the phases tile the step with no gap, and no
// two views can disagree. A record is a plain value with room for
// maxMarks phases; recording never allocates.
type StepRecord struct {
	start int64
	n     int
	marks [maxMarks]phaseMark
}

// maxMarks bounds the phases of one step record (the hybrid rank step
// marks at most ten).
const maxMarks = 16

type phaseMark struct {
	phase Phase
	end   int64
}

// Start clears the record and reads the clock: the step begins now.
func (r *StepRecord) Start() {
	r.start, r.n = Now(), 0
}

// Mark reads the clock once: phase p, begun at the previous boundary,
// ends now.
func (r *StepRecord) Mark(p Phase) {
	r.marks[r.n] = phaseMark{phase: p, end: Now()}
	r.n++
}

// End returns the last boundary read (the start when nothing is marked).
func (r *StepRecord) End() int64 {
	if r.n == 0 {
		return r.start
	}
	return r.marks[r.n-1].end
}

// Wall returns the step's wall time in nanoseconds: start to last mark.
func (r *StepRecord) Wall() int64 { return r.End() - r.start }

// Phases returns the nanoseconds spent in each phase; a phase marked
// more than once (the hybrid step's two all-to-alls) sums its segments.
func (r *StepRecord) Phases() [NumPhases]int64 {
	var out [NumPhases]int64
	at := r.start
	for _, m := range r.marks[:r.n] {
		out[m.phase] += m.end - at
		at = m.end
	}
	return out
}

// Emit records the step onto a tracer shard: one span per marked phase,
// then the PhaseStep envelope from start to the last mark. The caller
// must be the shard's only writer. A nil tracer records nothing.
func (r *StepRecord) Emit(t *Tracer, shard int) {
	if t == nil {
		return
	}
	at := r.start
	for _, m := range r.marks[:r.n] {
		t.record(shard, m.phase, at, m.end)
		at = m.end
	}
	t.record(shard, PhaseStep, r.start, at)
}

// traceShard is one single-writer span slab. Exactly one goroutine may
// record into a shard at a time; distinct shards are written
// concurrently without synchronization (disjoint memory). The pad keeps
// two shards' hot cursors off one cache line.
type traceShard struct {
	spans []Span
	next  int
	total uint64
	_     [64]byte
}

// Tracer is a fixed-capacity, slab-backed span recorder. It is sharded:
// every shard has one writer at a time (trainer, hybrid driver, decoder,
// assembler), which appends completed spans into that shard's
// pre-allocated ring, overwriting the oldest spans when full. The record
// path performs no allocations and takes no locks; Snapshot (which does
// allocate) must only run while the shards are quiescent — between
// steps, or after the recording goroutines stopped.
//
// A nil *Tracer is valid: every method no-ops, so hot paths instrument
// unconditionally.
type Tracer struct {
	shards []traceShard
	names  []string
	// hists holds one fixed bank of per-phase latency histograms per
	// shard, allocated up front so the record path stays allocation-free.
	// Unlike the span rings, histograms never overwrite: they keep the
	// full latency distribution of every span ever recorded, which is
	// what the doctor's tail analysis reads.
	hists []PhaseHistograms
}

// PhaseHistograms is one shard's bank of per-phase latency histograms.
type PhaseHistograms [NumPhases]Histogram

// NewTracer builds a tracer with the given shard count, each holding a
// ring of capacity spans. Memory is allocated up front: shards ×
// capacity × 24 bytes.
func NewTracer(shards, capacity int) *Tracer {
	if shards <= 0 {
		panic(fmt.Sprintf("telemetry: tracer shard count %d", shards))
	}
	if capacity <= 0 {
		capacity = 1024
	}
	t := &Tracer{
		shards: make([]traceShard, shards),
		names:  make([]string, shards),
		hists:  make([]PhaseHistograms, shards),
	}
	for i := range t.shards {
		t.shards[i].spans = make([]Span, capacity)
		t.names[i] = fmt.Sprintf("shard %d", i)
	}
	return t
}

// NameShard labels a shard for the exporters ("rank 0", "decoder 1").
func (t *Tracer) NameShard(i int, name string) {
	if t == nil {
		return
	}
	t.names[i] = name
}

// Emit records one span with explicit bounds, for work that is a single
// interval off the step's critical path (an overlapped all-reduce, an
// ingest stage, a checkpoint save). Steps record through StepRecord.
func (t *Tracer) Emit(shard int, p Phase, start, end int64) {
	if t == nil {
		return
	}
	t.record(shard, p, start, end)
}

func (t *Tracer) record(shard int, p Phase, start, end int64) {
	s := &t.shards[shard]
	s.spans[s.next] = Span{Phase: p, Shard: int32(shard), Start: start, End: end}
	s.next++
	if s.next == len(s.spans) {
		s.next = 0
	}
	s.total++
	t.hists[shard][p].Record(end - start)
}

// PhaseHist returns a merged clone of phase p's latency histogram across
// every shard. It uses atomic loads, so it is safe while recording is
// live (an approximate in-flight view); for exact numbers take it at a
// quiescent point. A nil tracer returns an empty histogram.
func (t *Tracer) PhaseHist(p Phase) Histogram {
	var out Histogram
	if t == nil {
		return out
	}
	for i := range t.hists {
		c := t.hists[i][p].Clone()
		out.Merge(&c)
	}
	return out
}

// Reset discards every recorded span (capacity is retained). Like
// Snapshot, it requires quiescent shards.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.next = 0
		s.total = 0
		for j := range s.spans {
			s.spans[j] = Span{}
		}
		t.hists[i] = PhaseHistograms{}
	}
}

// TraceSnapshot is a point-in-time copy of a tracer's retained spans,
// ordered by start time, plus the shard labels and the count of spans
// lost to ring overwrite.
type TraceSnapshot struct {
	Spans   []Span
	Shards  []string
	Dropped uint64
	// Hists carries each shard's per-phase latency histograms. Unlike
	// Spans (bounded by the ring capacity), the histograms cover every
	// span recorded since the last Reset, so tail quantiles survive ring
	// overwrite.
	Hists []PhaseHistograms
}

// Snapshot copies the retained spans out of every shard. It allocates,
// and must not run concurrently with recording (call it between steps or
// after the recording goroutines are done).
func (t *Tracer) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	var snap TraceSnapshot
	snap.Shards = append([]string(nil), t.names...)
	snap.Hists = make([]PhaseHistograms, len(t.hists))
	for i := range t.hists {
		for p := range t.hists[i] {
			snap.Hists[i][p] = t.hists[i][p].Clone()
		}
	}
	for i := range t.shards {
		s := &t.shards[i]
		n := int(s.total)
		if n > len(s.spans) {
			snap.Dropped += s.total - uint64(len(s.spans))
			n = len(s.spans)
		}
		// Ring order: oldest retained span first.
		start := s.next - n
		if start < 0 {
			start += len(s.spans)
		}
		for k := 0; k < n; k++ {
			snap.Spans = append(snap.Spans, s.spans[(start+k)%len(s.spans)])
		}
	}
	sort.SliceStable(snap.Spans, func(i, j int) bool { return snap.Spans[i].Start < snap.Spans[j].Start })
	return snap
}

// ShardName returns the label of shard i ("shard i" when unnamed).
func (s TraceSnapshot) ShardName(i int) string {
	if i >= 0 && i < len(s.Shards) {
		return s.Shards[i]
	}
	return fmt.Sprintf("shard %d", i)
}

// PhaseHist merges phase p's latency histogram across every shard of
// the snapshot. When the snapshot carries no histogram banks (hand-built
// literals in tests), it falls back to bucketing the retained spans.
func (s TraceSnapshot) PhaseHist(p Phase) Histogram {
	var out Histogram
	if len(s.Hists) == 0 {
		for _, sp := range s.Spans {
			if sp.Phase == p {
				out.Record(sp.Dur())
			}
		}
		return out
	}
	for i := range s.Hists {
		out.Merge(&s.Hists[i][p])
	}
	return out
}

// ShardPhaseHist returns shard i's histogram for phase p (empty when the
// snapshot has no banks or i is out of range), with the same span-level
// fallback as PhaseHist.
func (s TraceSnapshot) ShardPhaseHist(i int, p Phase) Histogram {
	var out Histogram
	if len(s.Hists) == 0 {
		for _, sp := range s.Spans {
			if sp.Phase == p && int(sp.Shard) == i {
				out.Record(sp.Dur())
			}
		}
		return out
	}
	if i >= 0 && i < len(s.Hists) {
		out = s.Hists[i][p]
	}
	return out
}
