package placement

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memtier"
	"repro/internal/workload"
)

func smallCfg() core.Config {
	return workload.DefaultTestSuite(256, 16) // 16 × 100k × 32 × 4 ≈ 205 MB
}

func TestGPUMemorySmallModelFitsOneGPU(t *testing.T) {
	plan, err := Fit(smallCfg(), hw.BigBasin(), GPUMemory, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if plan.EmbGPUs != 1 {
		t.Errorf("EmbGPUs = %d, want 1 for a 205MB model", plan.EmbGPUs)
	}
	cfg := smallCfg()
	if plan.HotFraction != 1 || plan.GPUBytes != cfg.EmbeddingBytes() {
		t.Errorf("plan: %+v", plan)
	}
}

func TestGPUMemorySpreadGrowsWithHashSize(t *testing.T) {
	// §V-C / Fig 12: growing hash sizes force more GPUs into the
	// embedding exchange.
	prev := 0
	for _, h := range workload.SweepHash {
		cfg := workload.TestSuiteConfig(1024, 16, 512, 3, h)
		plan, err := Fit(cfg, hw.BigBasin(), GPUMemory, 0)
		if err != nil {
			t.Fatalf("hash %d: %v", h, err)
		}
		if plan.EmbGPUs < prev {
			t.Errorf("hash %d: EmbGPUs %d decreased from %d", h, plan.EmbGPUs, prev)
		}
		prev = plan.EmbGPUs
	}
	if prev < 2 {
		t.Errorf("largest hash should need multiple GPUs, got %d", prev)
	}
}

func TestM3DoesNotFitOnBigBasinGPUs(t *testing.T) {
	// §VI-A: M3prod's embedding tables exceed a single Big Basin's GPU
	// memory, forcing the remote-CPU placement.
	m3 := workload.M3Prod()
	if _, err := Fit(m3, hw.BigBasin(), GPUMemory, 0); err == nil {
		t.Fatal("M3prod must not fit in Big Basin GPU memory")
	}
	if _, err := Fit(m3, hw.BigBasin(), SystemMemory, 0); err == nil {
		t.Fatal("M3prod must not fit in Big Basin 256GB system memory")
	}
	// Remote placement always works with enough PS.
	plan, err := Fit(m3, hw.BigBasin(), RemoteCPU, 8)
	if err != nil {
		t.Fatalf("remote placement: %v", err)
	}
	if plan.RemotePS != 8 {
		t.Errorf("RemotePS = %d", plan.RemotePS)
	}
	// Zion's 2TB system memory holds it (Fig 1's headline).
	if _, err := Fit(m3, hw.Zion(), SystemMemory, 0); err != nil {
		t.Fatalf("M3prod must fit in Zion system memory: %v", err)
	}
}

func TestM1M2FitOnBigBasinGPUs(t *testing.T) {
	for _, cfg := range []core.Config{workload.M1Prod(), workload.M2Prod()} {
		plan, err := Fit(cfg, hw.BigBasin(), GPUMemory, 0)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if plan.EmbGPUs < 2 || plan.EmbGPUs > 8 {
			t.Errorf("%s: EmbGPUs = %d", cfg.Name, plan.EmbGPUs)
		}
	}
}

func TestRemoteCPUAutoSizing(t *testing.T) {
	plan, err := Fit(workload.M3Prod(), hw.BigBasin(), RemoteCPU, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	// 240 GB over 192 GB-usable PS nodes => at least 2.
	if plan.RemotePS < 2 {
		t.Errorf("auto-sized RemotePS = %d", plan.RemotePS)
	}
	if _, err := Fit(workload.M3Prod(), hw.BigBasin(), RemoteCPU, 1); err == nil {
		t.Error("1 PS cannot hold M3prod; Fit must refuse")
	}
}

func TestGPUPlacementsRejectCPUPlatform(t *testing.T) {
	cpu := hw.DualSocketCPU()
	for _, s := range []Strategy{GPUMemory, SystemMemory, Hybrid, Tiered} {
		if _, err := Fit(smallCfg(), cpu, s, 0); err == nil {
			t.Errorf("%v placement must fail on a CPU-only platform", s)
		}
	}
	if _, err := Fit(smallCfg(), cpu, RemoteCPU, 0); err != nil {
		t.Errorf("RemoteCPU should work from any trainer: %v", err)
	}
}

func TestHybridSplitsByLookupDensity(t *testing.T) {
	// Two tables: one small-and-hot, one huge-and-cold. Hybrid must put
	// the hot one on GPU.
	cfg := core.Config{
		Name:          "hybrid-test",
		DenseFeatures: 64,
		EmbeddingDim:  64,
		BottomMLP:     []int{64},
		TopMLP:        []int{64},
		Interaction:   core.Concat,
		Sparse: []core.SparseFeature{
			{Name: "hot", HashSize: 1000, MeanPooled: 30, MaxPooled: 32},
			// ~229 GB: exceeds the 8-GPU budget on its own.
			{Name: "cold", HashSize: 960_000_000, MeanPooled: 1, MaxPooled: 32},
		},
	}
	plan, err := Fit(cfg, hw.Zion(), Hybrid, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if len(plan.GPUTableIdx) != 1 || plan.GPUTableIdx[0] != 0 {
		t.Errorf("GPU tables = %v, want [0] (the hot table)", plan.GPUTableIdx)
	}
	if len(plan.HostTableIdx) != 1 || plan.HostTableIdx[0] != 1 {
		t.Errorf("host tables = %v, want [1]", plan.HostTableIdx)
	}
	if plan.HotFraction < 0.9 {
		t.Errorf("HotFraction = %v, want ~30/31", plan.HotFraction)
	}
}

// strategies lists every placement option in enum order.
var strategies = []Strategy{GPUMemory, SystemMemory, RemoteCPU, Hybrid, Tiered}

// feasible returns the strategies Fit accepts for cfg on platform.
func feasible(cfg core.Config, platform hw.Platform) []Plan {
	var plans []Plan
	for _, s := range strategies {
		if p, err := Fit(cfg, platform, s, 0); err == nil {
			plans = append(plans, p)
		}
	}
	return plans
}

func TestFeasibleEnumerates(t *testing.T) {
	plans := feasible(smallCfg(), hw.BigBasin())
	if len(plans) != 5 {
		t.Errorf("small model should fit all 5 strategies on BigBasin, got %d", len(plans))
	}
	plans = feasible(workload.M3Prod(), hw.BigBasin())
	for _, p := range plans {
		if p.Strategy == GPUMemory || p.Strategy == SystemMemory {
			t.Errorf("M3prod must not report %v as feasible on BigBasin", p.Strategy)
		}
	}
}

func TestStrategyString(t *testing.T) {
	names := []string{"GPUMemory", "SystemMemory", "RemoteCPU", "Hybrid", "Tiered"}
	for i, s := range strategies {
		if s.String() != names[i] {
			t.Errorf("Strategy(%d).String() = %q", i, s.String())
		}
	}
	if !strings.Contains(Strategy(99).String(), "99") {
		t.Error("unknown strategy should render its number")
	}
}

func TestTieredSmallModelDegeneratesToGPUMemory(t *testing.T) {
	plan, err := Fit(smallCfg(), hw.BigBasin(), Tiered, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	cfg := smallCfg()
	if plan.GPUBytes != cfg.EmbeddingBytes() || plan.HostBytes != 0 || plan.RemoteBytes != 0 {
		t.Errorf("small model must live entirely in HBM: %+v", plan)
	}
	if plan.HotFraction != 1 || plan.EmbGPUs != 1 {
		t.Errorf("HotFraction %v EmbGPUs %d, want 1/1", plan.HotFraction, plan.EmbGPUs)
	}
	if plan.Tiered == nil || plan.Tiered.CacheRows != 0 {
		t.Errorf("no-spill plan must carry an assignment without a cache: %+v", plan.Tiered)
	}
}

func TestTieredHandlesHBMOverflow(t *testing.T) {
	// M3prod (224 GB) does not fit Big Basin's HBM or its 256 GB host
	// DRAM flat, but the tiered hierarchy holds it: hot tables in HBM,
	// spill in host DRAM, with an HBM hot-row cache in front.
	m3 := workload.M3Prod()
	plan, err := Fit(m3, hw.BigBasin(), Tiered, 0)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if plan.GPUBytes == 0 || plan.HostBytes == 0 {
		t.Errorf("M3prod must span HBM and host DRAM: %+v", plan)
	}
	if plan.EmbGPUs != 8 {
		t.Errorf("EmbGPUs = %d, want all 8 for a ~192GB HBM load", plan.EmbGPUs)
	}
	asg := plan.Tiered
	if asg == nil || asg.CacheRows == 0 || asg.CacheHitRate <= 0 {
		t.Fatalf("overflowing model must activate the hot-row cache: %+v", asg)
	}
	if plan.HotFraction <= asg.Tiers[0].ResidentShare {
		t.Error("cache hits must raise HotFraction above the resident HBM share")
	}
	if plan.HotFraction >= 1 {
		t.Errorf("HotFraction %v must stay below 1 when tables spill", plan.HotFraction)
	}
}

func TestFitTieredUsesProfile(t *testing.T) {
	// A trace that inverts the configured hotness must invert the HBM
	// winner (trace-driven placement, not config-driven).
	cfg := core.Config{
		Name:          "tiered-profile",
		DenseFeatures: 64,
		EmbeddingDim:  64,
		BottomMLP:     []int{64},
		TopMLP:        []int{64},
		Interaction:   core.Concat,
		Sparse: []core.SparseFeature{
			{Name: "cfg-hot", HashSize: 500_000_000, MeanPooled: 30, MaxPooled: 32}, // ~119 GB
			{Name: "cfg-cold", HashSize: 500_000_000, MeanPooled: 1, MaxPooled: 32}, // ~119 GB
		},
	}
	profile := [][]uint64{{2, 1}, {100, 90, 80}}
	plan, err := FitTiered(cfg, hw.BigBasin(), TieredOptions{
		Assign: memtier.AssignOptions{Profile: profile},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.GPUTableIdx) != 1 || plan.GPUTableIdx[0] != 1 {
		t.Errorf("traced-hot table must win HBM: GPU tables %v", plan.GPUTableIdx)
	}
}

func TestFitRejectsInvalidConfig(t *testing.T) {
	bad := smallCfg()
	bad.Sparse = nil
	if _, err := Fit(bad, hw.BigBasin(), GPUMemory, 0); err == nil {
		t.Error("invalid config accepted")
	}
}
