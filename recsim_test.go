package recsim

import (
	"bytes"
	"strings"
	"testing"
)

// TestPublicAPITelemetry drives the v1.5 observability surface: trace a
// few traced single-process steps, attribute them, export Chrome JSON,
// and read a metric back out of a registry snapshot.
func TestPublicAPITelemetry(t *testing.T) {
	cfg := ModelConfig{
		Name:          "telemetry-api",
		DenseFeatures: 8,
		Sparse:        UniformSparse(2, 100, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	tr := NewTrainer(NewModel(cfg, 1), TrainerConfig{LR: 0.05})
	tracer := NewTracer(1, 256)
	tr.SetTrace(tracer, 0)
	gen := NewGenerator(cfg, 2)
	for i := 0; i < 5; i++ {
		tr.Step(gen.NextBatch(32))
	}

	attr := Attribute(tracer.Snapshot())
	if attr.TotalSteps != 5 {
		t.Errorf("attributed %d steps, want 5", attr.TotalSteps)
	}
	// Loose bound: these toy steps are microseconds long, so the fixed
	// clock-read slack between spans is proportionally large. The 1%
	// acceptance check runs at realistic scale in telemetry_attribution.
	if c := attr.Coverage(); c < 0.9 || c > 1.1 {
		t.Errorf("phase coverage %.4f, want ~1.0", c)
	}
	if out := attr.Render(nil); !strings.Contains(out, "dense_fwd") {
		t.Errorf("report missing dense_fwd:\n%s", out)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "traceEvents") {
		t.Error("chrome trace missing traceEvents")
	}

	reg := NewTelemetryRegistry()
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
		Sparse:        UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	link, err := HybridLink("BigBasin")
	if err != nil {
		t.Fatal(err)
	}
	ht, err := NewHybridTrainer(cfg, HybridConfig{Ranks: 2, LR: 0.05, Link: link})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := NewGenerator(cfg, 2)
	var first, last float64
	var bd HybridStepBreakdown
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
	if got, want := float64(bd.AllToAllBytes), HybridAllToAllBytes(cfg, 32, 2); got != want {
		t.Errorf("metered all-to-all %v bytes, analytic %v", got, want)
	}
	if got, want := float64(bd.AllReduceBytes), HybridAllReduceBytes(cfg, 2); got != want {
		t.Errorf("metered all-reduce %v bytes, analytic %v", got, want)
	}
	if bd.ModelAllToAllSec <= 0 {
		t.Error("throttled link charged no modeled all-to-all time")
	}
	if st := ht.CollectiveStats(); st.AllToAll.Calls == 0 {
		t.Error("collective meters empty")
	}
}

// TestPublicAPIElasticCheckpoint drives the v1.6 durability surface: an
// elastic run that survives a rank kill by rolling back to the last
// checkpoint, then a rank-elastic restore of the same store into a
// smaller world.
func TestPublicAPIElasticCheckpoint(t *testing.T) {
	cfg := ModelConfig{
		Name:          "api-elastic",
		DenseFeatures: 8,
		Sparse:        UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   InteractionDot,
	}
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faults, err := ParseFaultSchedule("kill:1@10")
	if err != nil {
		t.Fatal(err)
	}
	const steps, batch = 16, 32
	res, err := RunElastic(ElasticConfig{
		Cfg:       cfg,
		HC:        HybridConfig{Ranks: 2, LR: 0.05, Seed: 1},
		Store:     store,
		CkptEvery: 4,
		FullEvery: 2,
		Steps:     steps,
		Source:    ReplaySource(cfg, 7, batch),
		Faults:    faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != steps || res.Recoveries != 1 {
		t.Errorf("elastic run: %d steps, %d recoveries; want %d steps, 1 recovery", res.Steps, res.Recoveries, steps)
	}
	if res.BytesRestored == 0 || res.LastRoot == "" {
		t.Errorf("recovery restored %d bytes, last root %q; want both non-empty", res.BytesRestored, res.LastRoot)
	}

	ht, info, err := RestoreHybridTrainer(cfg, HybridConfig{Ranks: 1, LR: 0.05, Seed: 1}, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
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
	c, err := EstimateCPUCluster(cfg, 200, 1, 1, 1)
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
	plan, bd, err := BestPlacement(models[1], "Zion", 3200)
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
	plan, err := FitPlacement(m3, "BigBasin", PlaceTiered, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Tiered == nil || plan.HotFraction <= 0 || plan.HotFraction >= 1 {
		t.Errorf("tiered plan %+v", plan)
	}
	tiered, err := EstimateGPU(m3, "BigBasin", 800, PlaceTiered)
	if err != nil {
		t.Fatal(err)
	}
	remote, err := EstimateGPU(m3, "BigBasin", 800, PlaceRemoteCPU)
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Throughput <= remote.Throughput {
		t.Errorf("tiered %v must beat remote %v for M3prod", tiered.Throughput, remote.Throughput)
	}
	tiers, err := MemoryTiers("BigBasin", 0)
	if err != nil || len(tiers) != 4 || tiers[0].Kind != TierHBM {
		t.Errorf("MemoryTiers: %v %v", tiers, err)
	}
	p, err := NewCachePolicy("clock", 16)
	if err != nil || p.Name() != "clock" {
		t.Errorf("NewCachePolicy: %v %v", p, err)
	}
	if _, err := PlaceTieredWith(m3, "BigBasin", TieredOptions{}); err != nil {
		t.Errorf("PlaceTieredWith: %v", err)
	}
}

func TestPublicAPIExperiments(t *testing.T) {
	ids := Experiments()
	if len(ids) != 24 {
		t.Fatalf("Experiments() = %d ids", len(ids))
	}
	res, err := RunExperiment("table1", ExperimentOptions{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "Zion") {
		t.Error("table1 output missing Zion")
	}
}

func TestPlatformsAndDescribe(t *testing.T) {
	if len(Platforms()) != 3 {
		t.Error("three platforms expected")
	}
	if _, err := PlatformByName("BigBasin"); err != nil {
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
	dt, err := ParseDType("bf16")
	if err != nil || dt != DTypeBF16 {
		t.Fatalf("ParseDType(bf16) = %v, %v", dt, err)
	}
	w, err := ParseWireFormat("int8")
	if err != nil || w != WireINT8 {
		t.Fatalf("ParseWireFormat(int8) = %v, %v", w, err)
	}
	if _, err := ParseWireFormat("fp8"); err == nil {
		t.Error("ParseWireFormat accepted fp8")
	}

	cfg := TestSuiteModel(500, 8)
	cfg.TableDType = DTypeBF16
	fp32 := cfg
	fp32.TableDType = DTypeFP32
	if b, f := cfg.EmbeddingBytes(), fp32.EmbeddingBytes(); 2*b != f {
		t.Errorf("bf16 embedding bytes %d, want half of %d", b, f)
	}

	ht, err := NewHybridTrainer(cfg, HybridConfig{
		Ranks: 2, LR: 0.05, Seed: 1,
		WireA2A: WireFP16, WireAllReduce: WireINT8,
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
	wantA2A := HybridAllToAllBytesWire(cfg, batch, 2, WireFP16.BytesPerElem()) * steps
	if rel := float64(st.AllToAll.Bytes)/wantA2A - 1; rel > 0.02 || rel < -0.02 {
		t.Errorf("fp16 all-to-all meter %d bytes, analytic %.0f", st.AllToAll.Bytes, wantA2A)
	}
	if full := HybridAllToAllBytesWire(cfg, batch, 2, 4) * steps; float64(st.AllToAll.Bytes) > full/1.9 {
		t.Errorf("fp16 wire moved %d bytes, want ~half of fp32's %.0f", st.AllToAll.Bytes, full)
	}
}
