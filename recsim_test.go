package recsim

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/memtier"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/tensor"
)

// The tests below drive each subsystem end to end from the root: through
// the facade where it exports the name, and through the internal package
// where the commands reach it.

// TestPublicAPITelemetry drives the observability surface: trace a few
// single-process steps, attribute them, export Chrome JSON, and read a
// metric back out of a registry snapshot.
func TestPublicAPITelemetry(t *testing.T) {
	cfg := ModelConfig{
		Name:          "telemetry-api",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(2, 100, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	tracer := telemetry.NewTracer(1, 256)
	tr.SetTrace(tracer, 0)
	gen := NewGenerator(cfg, 2)
	for i := 0; i < 5; i++ {
		tr.Step(gen.NextBatch(32))
	}

	attr := telemetry.Attribute(tracer.Snapshot())
	if attr.TotalSteps != 5 {
		t.Errorf("attributed %d steps, want 5", attr.TotalSteps)
	}
	// Loose bound: these toy steps are microseconds long, so the fixed
	// clock-read slack between spans is proportionally large. The 1%
	// acceptance check runs at realistic scale in straggler_analysis.
	if c := attr.Coverage(); c < 0.9 || c > 1.1 {
		t.Errorf("phase coverage %.4f, want ~1.0", c)
	}
	if out := attr.Render(nil); !strings.Contains(out, "dense_fwd") {
		t.Errorf("report missing dense_fwd:\n%s", out)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("chrome trace missing traceEvents")
	}

	reg := telemetry.NewRegistry()
	reg.Counter("api/steps").Add(5)
	if got := reg.Snapshot().Get("api/steps"); got != 5 {
		t.Errorf("registry snapshot api/steps = %d, want 5", got)
	}
}

func TestPublicAPITrainingFlow(t *testing.T) {
	cfg := ModelConfig{
		Name:          "api-test",
		DenseFeatures: 8,
		Sparse:        []SparseFeature{{Name: "f0", HashSize: 100, MeanPooled: 3, MaxPooled: 8}},
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	m := NewModel(cfg, 1)
	tr := NewTrainer(m, TrainerConfig{LR: 0.05})
	gen := NewGenerator(cfg, 2)
	var first, last float64
	for i := 0; i < 100; i++ {
		loss := tr.Step(gen.NextBatch(32))
		if i < 10 {
			first += loss
		}
		if i >= 90 {
			last += loss
		}
	}
	if last >= first {
		t.Errorf("loss did not improve: %v -> %v", first/10, last/10)
	}
	res := Evaluate(m, gen.EvalSet(4, 64))
	if res.Examples != 256 {
		t.Errorf("Evaluate examples = %d", res.Examples)
	}
}

func TestPublicAPIHybridTraining(t *testing.T) {
	cfg := ModelConfig{
		Name:          "api-hybrid",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	bb, err := hw.ByName("BigBasin")
	if err != nil {
		t.Fatal(err)
	}
	ht, err := hybrid.New(cfg, hybrid.Config{Ranks: 2, LR: 0.05, Link: collective.LinkFor(bb)})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := NewGenerator(cfg, 2)
	var first, last float64
	var bd hybrid.StepBreakdown
	for i := 0; i < 100; i++ {
		var loss float64
		loss, bd, _ = ht.Step(gen.NextBatch(32))
		if i < 10 {
			first += loss
		}
		if i >= 90 {
			last += loss
		}
	}
	if last >= first {
		t.Errorf("hybrid loss did not improve: %v -> %v", first/10, last/10)
	}
	if got, want := float64(bd.AllToAllBytes), perfmodel.HybridAllToAllBytesWire(cfg, 32, 2, 4); got != want {
		t.Errorf("metered all-to-all %v bytes, analytic %v", got, want)
	}
	if got, want := float64(bd.AllReduceBytes), perfmodel.HybridAllReduceBytesWire(cfg, 2, 4); got != want {
		t.Errorf("metered all-reduce %v bytes, analytic %v", got, want)
	}
	if bd.ModelAllToAllSec <= 0 {
		t.Error("throttled link charged no modeled all-to-all time")
	}
	if st := ht.CollectiveStats(); st.AllToAll.Calls == 0 {
		t.Error("collective meters empty")
	}
}

// TestPublicAPIElasticCheckpoint drives the durability surface: an
// elastic run that survives a rank kill by rolling back to the last
// checkpoint, then a rank-elastic restore of the same store into a
// smaller world.
func TestPublicAPIElasticCheckpoint(t *testing.T) {
	cfg := ModelConfig{
		Name:          "api-elastic",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faults, err := collective.ParseFaultSchedule("kill:1@10")
	if err != nil {
		t.Fatal(err)
	}
	const steps, batch = 16, 32
	res, err := hybrid.RunElastic(hybrid.ElasticConfig{
		Cfg:       cfg,
		HC:        hybrid.Config{Ranks: 2, LR: 0.05, Seed: 1},
		Store:     store,
		CkptEvery: 4,
		FullEvery: 2,
		Steps:     steps,
		Source:    data.ReplaySource(cfg, 7, data.DefaultOptions(), batch),
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps || res.Recoveries != 1 {
		t.Errorf("elastic run: %d steps, %d recoveries; want %d steps, 1 recovery", res.Steps, res.Recoveries, steps)
	}
	if res.BytesRestored == 0 {
		t.Errorf("recovery restored no bytes")
	}
	// The run returns after its last write has published, so the tip on
	// disk is already the run's last checkpoint.
	name, tip, err := store.Latest()
	if err != nil || tip == nil || tip.Root == "" || res.LastRoot != tip.Root {
		t.Fatalf("run's last root %q, store tip %q (err %v); want the tip's non-empty root", res.LastRoot, name, err)
	}

	ht, err := hybrid.New(cfg, hybrid.Config{Ranks: 1, LR: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	info, err := ht.RestoreCheckpoint(store)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != steps || ht.Iter() != steps {
		t.Errorf("single-rank rejoin at step %d (info %d), want %d", ht.Iter(), info.Step, steps)
	}
}

func TestPublicAPIEstimation(t *testing.T) {
	cfg := TestSuiteModel(1024, 16)
	g, err := EstimateGPU(cfg, "BigBasin", 1600, PlaceGPUMemory)
	if err != nil {
		t.Fatal(err)
	}
	c, err := perfmodel.Estimate(perfmodel.Scenario{
		Cfg: cfg, Platform: hw.DualSocketCPU(), Batch: 200,
		NumTrainers: 1, NumSparsePS: 1, NumDensePS: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Throughput <= c.Throughput {
		t.Errorf("GPU (%v) should beat single-trainer CPU (%v) here", g.Throughput, c.Throughput)
	}
	if _, err := EstimateGPU(cfg, "TPUv4", 1600, PlaceGPUMemory); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestPublicAPIPlacement(t *testing.T) {
	models := ProductionModels()
	if len(models) != 3 {
		t.Fatalf("ProductionModels = %d", len(models))
	}
	// M3 does not fit Big Basin GPU memory.
	if _, err := FitPlacement(models[2], "BigBasin", PlaceGPUMemory, 0); err == nil {
		t.Error("M3prod must not fit on Big Basin GPUs")
	}
	zion, err := hw.ByName("Zion")
	if err != nil {
		t.Fatal(err)
	}
	plan, bd, err := perfmodel.BestPlacement(models[1], zion, 3200, perfmodel.DefaultCalibration())
	if err != nil {
		t.Fatal(err)
	}
	if plan.Strategy != PlaceSystemMemory {
		t.Errorf("M2prod on Zion best placement = %v, want SystemMemory", plan.Strategy)
	}
	if bd.Throughput <= 0 {
		t.Error("zero throughput")
	}
}

func TestPublicAPITieredPlacement(t *testing.T) {
	// M3prod overflows Big Basin HBM: the tiered hierarchy must hold it
	// and beat the remote-PS estimate.
	m3 := ProductionModels()[2]
	plan, err := FitPlacement(m3, "BigBasin", placement.Tiered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiered == nil || plan.HotFraction <= 0 || plan.HotFraction >= 1 {
		t.Errorf("tiered plan %+v", plan)
	}
	tiered, err := EstimateGPU(m3, "BigBasin", 800, placement.Tiered)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := EstimateGPU(m3, "BigBasin", 800, placement.RemoteCPU)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Throughput <= remote.Throughput {
		t.Errorf("tiered %v must beat remote %v for M3prod", tiered.Throughput, remote.Throughput)
	}
	bb, err := hw.ByName("BigBasin")
	if err != nil {
		t.Fatal(err)
	}
	if tiers := bb.MemoryTiers(0); len(tiers) != 4 || tiers[0].Kind != hw.TierHBM {
		t.Errorf("MemoryTiers: %v", tiers)
	}
	p, err := memtier.NewPolicy("clock", 16)
	if err != nil || p.Name() != "clock" {
		t.Errorf("NewPolicy: %v %v", p, err)
	}
	if _, err := placement.FitTiered(m3, bb, placement.TieredOptions{}); err != nil {
		t.Errorf("FitTiered: %v", err)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := experiments.IDs()
	if len(ids) != 22 {
		t.Fatalf("experiments.IDs() = %d ids", len(ids))
	}
	res, err := experiments.Run("table1", experiments.Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "Zion") {
		t.Error("table1 output missing Zion")
	}
}

func TestPlatformsAndDescribe(t *testing.T) {
	if len(hw.Platforms()) != 3 {
		t.Error("three platforms expected")
	}
	if _, err := hw.ByName("BigBasin"); err != nil {
		t.Error(err)
	}
	d := Describe(ProductionModels()[0])
	if !strings.Contains(d, "M1prod") || !strings.Contains(d, "dense") {
		t.Errorf("Describe = %q", d)
	}
}

// TestPublicAPIMixedPrecision exercises the mixed-precision surface:
// dtype/wire parsing, a bf16-table hybrid trainer with compressed wires,
// and the dtype-aware analytic volume helpers.
func TestPublicAPIMixedPrecision(t *testing.T) {
	dt, err := tensor.ParseDType("bf16")
	if err != nil || dt != tensor.BF16 {
		t.Fatalf("ParseDType(bf16) = %v, %v", dt, err)
	}
	w, err := collective.ParseWireFormat("int8")
	if err != nil || w != collective.WireINT8 {
		t.Fatalf("ParseWireFormat(int8) = %v, %v", w, err)
	}
	if _, err := collective.ParseWireFormat("fp8"); err == nil {
		t.Error("ParseWireFormat accepted fp8")
	}

	cfg := TestSuiteModel(500, 8)
	cfg.TableDType = tensor.BF16
	fp32 := cfg
	fp32.TableDType = tensor.FP32
	if b, f := cfg.EmbeddingBytes(), fp32.EmbeddingBytes(); 2*b != f {
		t.Errorf("bf16 embedding bytes %d, want half of %d", b, f)
	}

	ht, err := hybrid.New(cfg, hybrid.Config{
		Ranks: 2, LR: 0.05, Seed: 1,
		WireA2A: collective.WireFP16, WireAllReduce: collective.WireINT8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := NewGenerator(cfg, 2)
	const batch, steps = 64, 3
	for i := 0; i < steps; i++ {
		if _, _, err := ht.Step(gen.NextBatch(batch)); err != nil {
			t.Fatal(err)
		}
	}
	st := ht.CollectiveStats()
	wantA2A := perfmodel.HybridAllToAllBytesWire(cfg, batch, 2, collective.WireFP16.BytesPerElem()) * steps
	if rel := float64(st.AllToAll.Bytes)/wantA2A - 1; rel > 0.02 || rel < -0.02 {
		t.Errorf("fp16 all-to-all meter %d bytes, analytic %.0f", st.AllToAll.Bytes, wantA2A)
	}
	if full := perfmodel.HybridAllToAllBytesWire(cfg, batch, 2, 4) * steps; float64(st.AllToAll.Bytes) > full/1.9 {
		t.Errorf("fp16 wire moved %d bytes, want ~half of fp32's %.0f", st.AllToAll.Bytes, full)
	}
}
