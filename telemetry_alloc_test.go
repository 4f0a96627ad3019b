package recsim

import (
	"testing"

	"repro/internal/benchreport"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/telemetry"
)

// TestStepTraceZeroAlloc is the observability half of the hot-path
// allocation budget: turning span tracing ON must not add a single heap
// allocation to any steady-state step. The budgets mirror the untraced
// guards — 0 for the single-process and hybrid steps (zeroalloc_test.go,
// internal/hybrid), ~0 with a small runtime allowance for the
// ingestion-fed step (its untraced guard in internal/ingest allows the
// same).
// TestTimeseriesZeroAlloc extends the budget to the flight recorder:
// with tracing AND per-step recording on, the recorder's sample (meter
// deltas, phase-histogram deltas, ring append, detector update) must
// add zero heap allocations to the single-process step and to the
// overlapped hybrid step.
func TestTimeseriesZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()

	t.Run("single", func(t *testing.T) {
		trace := telemetry.NewTracer(1, 2048)
		reg := telemetry.NewRegistry()
		fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
			Tracer: trace, Registry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
		tr.SetTrace(trace, 0)
		tr.SetRecorder(fr)
		batch := NewGenerator(cfg, 2).NextBatch(128)
		for i := 0; i < 12; i++ {
			tr.Step(batch)
		}
		if avg := testing.AllocsPerRun(10, func() { tr.Step(batch) }); avg != 0 {
			t.Fatalf("recorded Trainer.Step allocates %.1f objects per step, want 0", avg)
		}
		if fr.Timeseries().Len() == 0 {
			t.Fatal("recorder saw no samples")
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1, Overlap: true}
		hc.Trace = telemetry.NewTracer(hc.ShardCount(), 2048)
		hc.Registry = telemetry.NewRegistry()
		fr, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
			Tracer: hc.Trace, Registry: hc.Registry, Ranks: hc.Ranks,
		})
		if err != nil {
			t.Fatal(err)
		}
		hc.Recorder = fr
		ht, err := hybrid.New(cfg, hc)
		if err != nil {
			t.Fatal(err)
		}
		defer ht.Close()
		batch := NewGenerator(cfg, 2).NextBatch(128)
		for i := 0; i < 12; i++ {
			ht.Step(batch)
		}
		if avg := testing.AllocsPerRun(20, func() { ht.Step(batch) }); avg != 0 {
			t.Fatalf("recorded hybrid step allocates %.1f objects per step, want 0", avg)
		}
		last, ok := fr.Timeseries().Last()
		if !ok || last.WaitNS < 0 || last.StragglerIndex <= 0 {
			t.Fatalf("recorded hybrid sample malformed: %+v (ok=%v)", last, ok)
		}
	})
}

func TestStepTraceZeroAlloc(t *testing.T) {
	cfg := benchreport.BenchStepConfig()

	t.Run("single", func(t *testing.T) {
		trace := telemetry.NewTracer(1, 2048)
		tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
		tr.SetTrace(trace, 0)
		batch := NewGenerator(cfg, 2).NextBatch(128)
		for i := 0; i < 3; i++ {
			tr.Step(batch)
		}
		if avg := testing.AllocsPerRun(10, func() { tr.Step(batch) }); avg != 0 {
			t.Fatalf("traced Trainer.Step allocates %.1f objects per step, want 0", avg)
		}
		// The same budget covers the quantile histograms the spans feed.
		if h := trace.PhaseHist(telemetry.PhaseStep); h.Count() == 0 || h.Quantile(0.99) <= 0 {
			t.Fatalf("step histogram empty after traced steps (count %d)", h.Count())
		}
	})

	t.Run("hybrid", func(t *testing.T) {
		hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1, Overlap: true}
		hc.Trace = telemetry.NewTracer(hc.ShardCount(), 2048)
		ht, err := hybrid.New(cfg, hc)
		if err != nil {
			t.Fatal(err)
		}
		defer ht.Close()
		batch := NewGenerator(cfg, 2).NextBatch(128)
		for i := 0; i < 5; i++ {
			ht.Step(batch)
		}
		if avg := testing.AllocsPerRun(20, func() { ht.Step(batch) }); avg != 0 {
			t.Fatalf("traced hybrid step allocates %.1f objects per step, want 0", avg)
		}
		for _, p := range []telemetry.Phase{telemetry.PhaseStep, telemetry.PhaseAllToAll, telemetry.PhaseAllReduce} {
			if h := hc.Trace.PhaseHist(p); h.Count() == 0 {
				t.Fatalf("%s histogram empty after traced hybrid steps", p)
			}
		}
	})

	t.Run("ingest", func(t *testing.T) {
		dir := t.TempDir()
		if err := NewGenerator(cfg, 9).WriteShards(dir, 4, 4*128); err != nil {
			t.Fatal(err)
		}
		ds, err := ingest.OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		iOpt := ingest.Options{BatchSize: 128, Readers: 2, Dedup: true, Seed: 1}
		iOpt.Trace = telemetry.NewTracer(1+iOpt.ShardCount(), 2048)
		iOpt.TraceShard = 1
		pipe, err := ingest.Open(ds, cfg, iOpt)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
		tr.SetTrace(iOpt.Trace, 0)
		// Many epochs of warmup: every slab, ring slot, and dedup map must
		// reach its high-water mark before counting.
		for i := 0; i < 800; i++ {
			mb, err := pipe.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			tr.Step(mb)
			pipe.Recycle(mb)
		}
		avg := testing.AllocsPerRun(20, func() {
			mb, err := pipe.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			tr.Step(mb)
			pipe.Recycle(mb)
		})
		if avg > 2 {
			t.Fatalf("traced ingest-fed step allocates %.1f objects per step, want ~0", avg)
		}
	})
}
