package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		n := p.String()
		if n == "" || strings.HasPrefix(n, "Phase(") {
			t.Fatalf("phase %d has no name", p)
		}
		if seen[n] {
			t.Fatalf("duplicate phase name %q", n)
		}
		seen[n] = true
	}
	if got := Phase(200).String(); got != "Phase(200)" {
		t.Fatalf("out-of-range phase name = %q", got)
	}
}

func TestNowMonotone(t *testing.T) {
	a := Now()
	b := Now()
	if b < a {
		t.Fatalf("Now went backwards: %d then %d", a, b)
	}
}

func TestStepRecordEmit(t *testing.T) {
	tr := NewTracer(2, 8)
	var rec StepRecord
	rec.Start()
	rec.Mark(PhaseDenseFwd)
	rec.Emit(tr, 1)
	snap := tr.Snapshot()
	if len(snap.Spans) != 2 {
		t.Fatalf("got %d spans, want the phase and its step envelope", len(snap.Spans))
	}
	for _, sp := range snap.Spans {
		if sp.Shard != 1 || sp.Dur() != rec.Wall() || sp.End != rec.End() {
			t.Fatalf("bad span %+v for a %d ns record", sp, rec.Wall())
		}
	}
	if snap.Spans[0].Phase != PhaseDenseFwd || snap.Spans[1].Phase != PhaseStep {
		t.Fatalf("phases %v, %v", snap.Spans[0].Phase, snap.Spans[1].Phase)
	}
}

// TestStepRecordTiles is the clock-base guarantee behind the attribution
// report: consecutive phases share their boundary reading, so interior
// phases sum to the step envelope with zero gap, and Phases and Wall
// agree with the emitted spans to the nanosecond.
func TestStepRecordTiles(t *testing.T) {
	tr := NewTracer(1, 16)
	var rec StepRecord
	rec.Start()
	for _, p := range []Phase{PhaseEmbLookup, PhaseAllToAll, PhaseDenseFwd, PhaseAllToAll} {
		rec.Mark(p)
	}
	rec.Emit(tr, 0)
	a := Attribute(tr.Snapshot())
	if len(a.Shards) != 1 || a.Shards[0].Coverage() != 1 || a.Shards[0].StepNS != rec.Wall() {
		t.Fatalf("attribution %+v of a %d ns record", a.Shards, rec.Wall())
	}
	ph := rec.Phases()
	if ph != a.Shards[0].Phases {
		t.Fatalf("Phases %v, spans %v", ph, a.Shards[0].Phases)
	}
	var sum int64
	for _, ns := range ph {
		sum += ns
	}
	if sum != rec.Wall() {
		t.Fatalf("phases sum to %d, wall %d", sum, rec.Wall())
	}
}

func TestTracerRingOverwrite(t *testing.T) {
	tr := NewTracer(1, 4)
	for i := 0; i < 10; i++ {
		tr.Emit(0, PhaseOptimizer, int64(i), int64(i+1))
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("retained %d spans, want 4", len(snap.Spans))
	}
	if snap.Dropped != 6 {
		t.Fatalf("dropped = %d, want 6", snap.Dropped)
	}
	// Oldest retained first.
	for i, sp := range snap.Spans {
		if sp.Start != int64(6+i) {
			t.Fatalf("span %d start = %d, want %d", i, sp.Start, 6+i)
		}
	}
}

func TestTracerReset(t *testing.T) {
	tr := NewTracer(1, 4)
	tr.Emit(0, PhaseLoss, 1, 2)
	tr.Reset()
	if snap := tr.Snapshot(); len(snap.Spans) != 0 || snap.Dropped != 0 {
		t.Fatalf("after reset: %d spans, %d dropped", len(snap.Spans), snap.Dropped)
	}
}

func TestNilTracerNoops(t *testing.T) {
	var tr *Tracer
	var rec StepRecord
	rec.Start()
	rec.Mark(PhaseLoss)
	rec.Emit(tr, 0)
	tr.Emit(0, PhaseLoss, 1, 2)
	tr.Reset()
	tr.NameShard(0, "x")
	if snap := tr.Snapshot(); len(snap.Spans) != 0 {
		t.Fatal("nil tracer produced spans")
	}
}

// TestTracerRecordZeroAlloc pins the record-path allocation budget that
// the root-level TestStepTraceZeroAlloc guards end to end.
func TestTracerRecordZeroAlloc(t *testing.T) {
	tr := NewTracer(1, 64)
	var rec StepRecord
	if avg := testing.AllocsPerRun(100, func() {
		rec.Start()
		rec.Mark(PhaseEmbLookup)
		rec.Mark(PhaseDenseFwd)
		rec.Emit(tr, 0)
		tr.Emit(0, PhaseAllReduce, 1, 2)
	}); avg != 0 {
		t.Fatalf("record path allocates %.1f objects, want 0", avg)
	}
}

// TestTracerShardsConcurrent exercises distinct-shard recording under
// the race detector: single-writer shards must not share mutable state.
func TestTracerShardsConcurrent(t *testing.T) {
	const shards, spans = 8, 200
	tr := NewTracer(shards, spans)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var rec StepRecord
			for i := 0; i < spans/2; i++ {
				rec.Start()
				rec.Mark(PhaseOptimizer)
				rec.Emit(tr, s)
			}
		}(s)
	}
	wg.Wait()
	snap := tr.Snapshot()
	if len(snap.Spans) != shards*spans {
		t.Fatalf("got %d spans, want %d", len(snap.Spans), shards*spans)
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a/b")
	c.Add(3)
	c.Inc()
	if c.Load() != 4 {
		t.Fatalf("counter = %d, want 4", c.Load())
	}
	if r.Counter("a/b") != c {
		t.Fatal("Counter not idempotent")
	}
	g := r.Gauge("g")
	g.Set(7)
	if !g.SetOnce(9) == false {
		t.Fatal("SetOnce stored over non-zero")
	}
	if g.Load() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Load())
	}
	g.Set(0)
	if !g.SetOnce(5) || g.Load() != 5 {
		t.Fatal("SetOnce failed on zero gauge")
	}
}

func TestNilInstruments(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Add(1)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter held a value")
	}
	g := r.Gauge("y")
	g.Set(2)
	if g.SetOnce(3) || g.Load() != 0 {
		t.Fatal("nil gauge held a value")
	}
	r.RegisterFunc("f", func() int64 { return 1 })
	r.Reset()
	if s := r.Snapshot(); len(s.Metrics) != 0 {
		t.Fatal("nil registry snapshot non-empty")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("z/count").Add(2)
	r.Gauge("a/gauge").Set(5)
	r.RegisterFunc("m/func", func() int64 { return 11 })
	s := r.Snapshot()
	names := make([]string, len(s.Metrics))
	for i, m := range s.Metrics {
		names[i] = m.Name
	}
	want := []string{"a/gauge", "m/func", "z/count"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("snapshot order %v, want %v", names, want)
	}
	if s.Get("m/func") != 11 || s.Get("z/count") != 2 {
		t.Fatalf("bad values in %+v", s.Metrics)
	}
	if _, ok := s.Value("missing"); ok {
		t.Fatal("missing metric reported present")
	}

	r.Counter("z/count").Add(3)
	if d := r.Snapshot(); d.Get("z/count") != 5 || d.Get("a/gauge") != s.Get("a/gauge") {
		t.Fatalf("second snapshot wrong: %+v", d.Metrics)
	}

	r.Reset()
	after := r.Snapshot()
	if after.Get("z/count") != 0 || after.Get("a/gauge") != 0 {
		t.Fatal("reset did not zero instruments")
	}
	if after.Get("m/func") != 11 {
		t.Fatal("reset clobbered snapshot func")
	}

	if out := after.Render(); !strings.Contains(out, "m/func") {
		t.Fatalf("render missing metric:\n%s", out)
	}
}

func TestRegistryInstrumentZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hot")
	g := r.Gauge("hot/g")
	if avg := testing.AllocsPerRun(100, func() {
		c.Add(1)
		g.Set(c.Load())
	}); avg != 0 {
		t.Fatalf("instrument ops allocate %.1f objects, want 0", avg)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.NameShard(0, "rank 0")
	tr.NameShard(1, "decoder 0")
	tr.Emit(0, PhaseStep, 0, 100)
	tr.Emit(0, PhaseDenseFwd, 0, 60)
	tr.Emit(1, PhaseIngestDecode, 10, 50)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var meta, complete int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			for _, k := range []string{"name", "ts", "pid", "tid"} {
				if _, ok := ev[k]; !ok {
					t.Fatalf("event missing %q: %v", k, ev)
				}
			}
		default:
			t.Fatalf("unexpected ph %v", ev["ph"])
		}
	}
	if meta != 2 || complete != 3 {
		t.Fatalf("meta=%d complete=%d, want 2 and 3", meta, complete)
	}
}

func TestAttribute(t *testing.T) {
	tr := NewTracer(3, 16)
	tr.NameShard(0, "rank 0")
	tr.NameShard(1, "rank 1")
	tr.NameShard(2, "overlap 0")
	// Rank 0: one step [0,100) tiled as lookup 40 + fwd 30 + bwd 30.
	tr.Emit(0, PhaseStep, 0, 100)
	tr.Emit(0, PhaseEmbLookup, 0, 40)
	tr.Emit(0, PhaseDenseFwd, 40, 70)
	tr.Emit(0, PhaseDenseBwd, 70, 100)
	// Rank 1: slower step [0,120) fully tiled by lookup.
	tr.Emit(1, PhaseStep, 0, 120)
	tr.Emit(1, PhaseEmbLookup, 0, 120)
	// Overlap shard: background all-reduce, no step window.
	tr.Emit(2, PhaseAllReduce, 10, 90)

	a := Attribute(tr.Snapshot())
	if len(a.Shards) != 2 || a.TotalSteps != 2 {
		t.Fatalf("shards=%d steps=%d, want 2/2", len(a.Shards), a.TotalSteps)
	}
	if a.WallNS != 120 {
		t.Fatalf("critical path = %d, want 120", a.WallNS)
	}
	if a.Background[PhaseAllReduce] != 80 {
		t.Fatalf("background allreduce = %d, want 80", a.Background[PhaseAllReduce])
	}
	if cov := a.Coverage(); cov != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", cov)
	}
	per := a.PerStepNS()
	if per[PhaseEmbLookup] != 80 { // (40+120)/2
		t.Fatalf("emb_lookup per-step = %v, want 80", per[PhaseEmbLookup])
	}
	if w := a.StepWallNS(); w != 110 { // (100+120)/2
		t.Fatalf("step wall per-step = %v, want 110", w)
	}

	out := a.Render(map[Phase]float64{PhaseEmbLookup: 80e-9})
	for _, want := range []string{"emb_lookup", "all_reduce", "coverage=100.00%", "obs/pred"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

// TestAttributeClipsToWindows: spans outside a step window (warmup,
// eval-time forward passes) must not pollute the per-step numbers.
func TestAttributeClipsToWindows(t *testing.T) {
	tr := NewTracer(1, 16)
	tr.Emit(0, PhaseDenseFwd, 0, 50) // warmup, before any step
	tr.Emit(0, PhaseStep, 100, 200)
	tr.Emit(0, PhaseDenseFwd, 100, 200)
	tr.Emit(0, PhaseDenseFwd, 250, 300) // eval after the step
	a := Attribute(tr.Snapshot())
	if got := a.Shards[0].Phases[PhaseDenseFwd]; got != 100 {
		t.Fatalf("clipped dense_fwd = %d, want 100", got)
	}
	if cov := a.Shards[0].Coverage(); cov != 1.0 {
		t.Fatalf("coverage = %v, want 1.0", cov)
	}
}

func TestTimeline(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.NameShard(0, "rank 0")
	tr.NameShard(1, "ingest")
	tr.Emit(0, PhaseStep, 0, 100)
	tr.Emit(0, PhaseDenseFwd, 0, 50)
	tr.Emit(1, PhaseIngestRead, 25, 75)
	out := tr.Snapshot().Timeline(40)
	if !strings.Contains(out, "rank 0") || !strings.Contains(out, "ingest") {
		t.Fatalf("timeline missing shard labels:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("timeline painted nothing:\n%s", out)
	}
	if empty := (TraceSnapshot{}).Timeline(40); !strings.Contains(empty, "no spans") {
		t.Fatalf("empty timeline = %q", empty)
	}
}
