package recsim

import (
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/telemetry"
)

// TestDoctorClassifiesRegimes drives the performance doctor through
// three synthetically forced regimes and checks each verdict: a
// dense-heavy run on a perfect wire is compute-bound, the same model on
// a crippled 1 MB/s link is communication-bound (the Link-priced model
// time dominates even though the in-process collectives move at memory
// speed), and a trainer starved by a throttled reader is reader-bound.
// The communication case classifies a recorded run, not a live one: its
// verdict turns on meters that are a function of bytes alone, and a live
// run only added the chance that a loaded box skews the two ranks' wall
// clocks into a straggler verdict.
func TestDoctorClassifiesRegimes(t *testing.T) {
	t.Run("compute", func(t *testing.T) {
		rep := diagnoseHybrid(t, computeHeavyConfig(), collective.PerfectLink())
		if rep.Verdict != telemetry.VerdictCompute {
			t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, telemetry.VerdictCompute, rep.Render())
		}
	})

	t.Run("comm", func(t *testing.T) {
		rep := telemetry.Diagnose(recordedSlowWireRun())
		if rep.Verdict != telemetry.VerdictAllReduce {
			t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, telemetry.VerdictAllReduce, rep.Render())
		}
	})

	t.Run("reader", func(t *testing.T) {
		cfg := core.Config{
			Name:          "doctor-reader",
			DenseFeatures: 8,
			Sparse:        core.UniformSparse(2, 100, 5),
			EmbeddingDim:  8,
			BottomMLP:     []int{16},
			TopMLP:        []int{16},
			Interaction:   core.DotProduct,
		}
		dir := t.TempDir()
		if err := NewGenerator(cfg, 3).WriteShards(dir, 2, 256); err != nil {
			t.Fatal(err)
		}
		ds, err := ingest.OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer ds.Close()
		iOpt := ingest.Options{
			BatchSize: 64, Readers: 1, Seed: 1,
			ReadBandwidth: 200e3, // ~200 KB/s: each shard read stalls the feed
		}
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer(1+iOpt.ShardCount(), 4096)
		iOpt.Registry, iOpt.Trace, iOpt.TraceShard = reg, tr, 1
		pipe, err := ingest.Open(ds, cfg, iOpt)
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.Close()
		trn := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
		trn.SetTrace(tr, 0)
		for i := 0; i < 8; i++ {
			mb, err := pipe.NextBatch()
			if err != nil {
				t.Fatal(err)
			}
			trn.Step(mb)
			pipe.Recycle(mb)
		}
		rep := telemetry.Diagnose(telemetry.DoctorInput{Snap: tr.Snapshot(), Metrics: reg.Snapshot()})
		if rep.Verdict != telemetry.VerdictReader {
			t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, telemetry.VerdictReader, rep.Render())
		}
	})
}

// computeHeavyConfig is small in embeddings but heavy in dense FLOPs, so
// on a fast wire the step is compute-dominated.
func computeHeavyConfig() core.Config {
	return core.Config{
		Name:          "doctor-compute",
		DenseFeatures: 32,
		Sparse:        core.UniformSparse(2, 200, 5),
		EmbeddingDim:  8,
		BottomMLP:     []int{128, 128},
		TopMLP:        []int{128, 64},
		Interaction:   core.DotProduct,
	}
}

// recordedSlowWireRun is 40 steps of computeHeavyConfig on two ranks with
// overlapped all-reduce over a 1 MB/s, 100 µs link, as the tracer and the
// collective meters recorded it on the 2-vCPU box (batch 256; spans
// rounded to the microsecond, every step given the first one's tiling).
func recordedSlowWireRun() telemetry.DoctorInput {
	const ranks, steps = 2, 40
	const stepPeriodUS = 9200
	type seg struct {
		phase telemetry.Phase
		durUS int64
	}
	tiling := [ranks][]seg{
		{{telemetry.PhaseEmbLookup, 14}, {telemetry.PhaseAllToAll, 40}, {telemetry.PhaseDenseFwd, 2453},
			{telemetry.PhaseLoss, 7}, {telemetry.PhaseDenseBwd, 5531}, {telemetry.PhaseAllToAll, 797},
			{telemetry.PhaseSparseScatter, 39}, {telemetry.PhaseAllReduce, 142}, {telemetry.PhaseOptimizer, 75}},
		{{telemetry.PhaseEmbLookup, 15}, {telemetry.PhaseAllToAll, 20}, {telemetry.PhaseDenseFwd, 3400},
			{telemetry.PhaseLoss, 6}, {telemetry.PhaseDenseBwd, 5419}, {telemetry.PhaseAllToAll, 43},
			{telemetry.PhaseSparseScatter, 46}, {telemetry.PhaseAllReduce, 22}, {telemetry.PhaseOptimizer, 71}},
	}
	bgAllReduceUS := [ranks]int64{976, 21} // on the background shard, from the end of dense_bwd

	tr := telemetry.NewTracer(2*ranks, 4096)
	for step := int64(0); step < steps; step++ {
		for r, segs := range tiling {
			start := step * stepPeriodUS * 1e3
			at := start
			for _, sg := range segs {
				end := at + sg.durUS*1e3
				tr.Emit(r, sg.phase, at, end)
				if sg.phase == telemetry.PhaseDenseBwd {
					tr.Emit(ranks+r, telemetry.PhaseAllReduce, end, end+bgAllReduceUS[r]*1e3)
				}
				at = end
			}
			tr.Emit(r, telemetry.PhaseStep, start, at)
		}
	}

	// Per step: 253 kB of dense gradient and 16 kB of pooled rows, priced
	// by the link; each rank blocked ~1 ms at rendezvous.
	reg := telemetry.NewRegistry()
	reg.Counter("collective/allreduce/model_ns").Add(steps * 253_400_000)
	reg.Counter("collective/alltoall/model_ns").Add(steps * 16_784_000)
	reg.Counter("collective/rank0/wait_ns").Add(steps * 725_000)
	reg.Counter("collective/rank1/wait_ns").Add(steps * 1_066_000)
	return telemetry.DoctorInput{Snap: tr.Snapshot(), Metrics: reg.Snapshot()}
}

// diagnoseHybrid runs a traced 2-rank hybrid trainer on the given link
// and returns the doctor's report. The first step sizes every rank's
// arenas — one-off, rank-skewed work the doctor would read as a straggler
// — so it runs before the measurement window opens. The window and the
// batch are sized for the imbalance index to settle well under the
// straggler threshold even on two contended vCPUs: at batch 64 the
// per-step rendezvous cost, which falls on whichever rank arrives last,
// keeps the index near 1.2 however long the run.
func diagnoseHybrid(t *testing.T, cfg core.Config, link collective.Link) telemetry.DoctorReport {
	t.Helper()
	hc := hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1, Overlap: true, Link: link}
	reg := telemetry.NewRegistry()
	hc.Registry = reg
	hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
	ht, err := hybrid.New(cfg, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	batch := NewGenerator(cfg, 2).NextBatch(256)
	step := func() {
		if _, _, err := ht.Step(batch); err != nil {
			t.Fatal(err)
		}
	}
	step() // warm-up, then a fresh tracer/registry window
	hc.Trace.Reset()
	reg.Reset()
	for i := 0; i < 40; i++ {
		step()
	}
	return telemetry.Diagnose(telemetry.DoctorInput{Snap: hc.Trace.Snapshot(), Metrics: reg.Snapshot()})
}
