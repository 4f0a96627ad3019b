package workload

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

func TestTestSuiteConfigDefaults(t *testing.T) {
	cfg := DefaultTestSuite(1024, 16)
	if err := cfg.Validate(); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	if cfg.DenseFeatures != 1024 || cfg.NumSparse() != 16 {
		t.Errorf("dims: %d dense, %d sparse", cfg.DenseFeatures, cfg.NumSparse())
	}
	if len(cfg.BottomMLP) != 3 || cfg.BottomMLP[0] != 512 {
		t.Errorf("bottom MLP %v, want 512^3", cfg.BottomMLP)
	}
	for _, s := range cfg.Sparse {
		if s.HashSize != TestSuiteHashSize || s.MaxPooled != 32 {
			t.Errorf("sparse feature %+v", s)
		}
	}
}

func TestTestSuiteConfigOverrides(t *testing.T) {
	cfg := TestSuiteConfig(64, 4, 1024, 4, 400000)
	if len(cfg.BottomMLP) != 4 || cfg.BottomMLP[0] != 1024 {
		t.Errorf("MLP override failed: %v", cfg.BottomMLP)
	}
	if cfg.Sparse[0].HashSize != 400000 {
		t.Errorf("hash override failed: %d", cfg.Sparse[0].HashSize)
	}
	// Zero args fall back to defaults.
	cfg = TestSuiteConfig(64, 4, 0, 0, 0)
	if cfg.BottomMLP[0] != 512 || len(cfg.BottomMLP) != 3 || cfg.Sparse[0].HashSize != TestSuiteHashSize {
		t.Error("zero overrides must use defaults")
	}
}

// TestTableIIFidelity checks the production model zoo against Table II.
func TestTableIIFidelity(t *testing.T) {
	cases := []struct {
		cfg       core.Config
		sparse    int
		dense     int
		meanLen   float64
		meanHash  float64
		minGB     float64
		maxGB     float64
		bottomMLP []int
		topMLPLen int
	}{
		{M1Prod(), 30, 800, 28, 5.7e6, 10, 100, []int{512}, 3},
		{M2Prod(), 13, 504, 17, 7.3e6, 10, 100, []int{1024}, 3},
		{M3Prod(), 127, 809, 49, 3.7e6, 100, 400, []int{512}, 5},
	}
	for _, c := range cases {
		if c.cfg.NumSparse() != c.sparse {
			t.Errorf("%s: %d sparse features, want %d", c.cfg.Name, c.cfg.NumSparse(), c.sparse)
		}
		if c.cfg.DenseFeatures != c.dense {
			t.Errorf("%s: %d dense features, want %d", c.cfg.Name, c.cfg.DenseFeatures, c.dense)
		}
		var sumL, sumH float64
		for _, s := range c.cfg.Sparse {
			sumL += s.MeanPooled
			sumH += float64(s.HashSize)
			if s.HashSize < 30 || s.HashSize > 20_000_000 {
				t.Errorf("%s: hash size %d outside Fig 6 range [30, 20M]", c.cfg.Name, s.HashSize)
			}
		}
		n := float64(c.cfg.NumSparse())
		if math.Abs(sumL/n-c.meanLen)/c.meanLen > 0.02 {
			t.Errorf("%s: mean feature length %v, want %v", c.cfg.Name, sumL/n, c.meanLen)
		}
		if math.Abs(sumH/n-c.meanHash)/c.meanHash > 0.05 {
			t.Errorf("%s: mean hash size %v, want %v", c.cfg.Name, sumH/n, c.meanHash)
		}
		gb := float64(c.cfg.EmbeddingBytes()) / (1 << 30)
		if gb < c.minGB || gb > c.maxGB {
			t.Errorf("%s: embedding size %.1f GB outside [%v, %v]", c.cfg.Name, gb, c.minGB, c.maxGB)
		}
		for i, w := range c.bottomMLP {
			if c.cfg.BottomMLP[i] != w {
				t.Errorf("%s: bottom MLP %v", c.cfg.Name, c.cfg.BottomMLP)
			}
		}
		if len(c.cfg.TopMLP) != c.topMLPLen {
			t.Errorf("%s: top MLP depth %d, want %d", c.cfg.Name, len(c.cfg.TopMLP), c.topMLPLen)
		}
		if err := c.cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.cfg.Name, err)
		}
	}
}

func TestProdModelsDeterministic(t *testing.T) {
	a, b := M1Prod(), M1Prod()
	for i := range a.Sparse {
		if a.Sparse[i].HashSize != b.Sparse[i].HashSize {
			t.Fatal("M1Prod must be deterministic")
		}
	}
}

func TestHashSizesAreHeavyTailed(t *testing.T) {
	// Fig 6: hash sizes span orders of magnitude.
	cfg := M3Prod()
	min, max := math.MaxInt64, 0
	for _, s := range cfg.Sparse {
		if s.HashSize < min {
			min = s.HashSize
		}
		if s.HashSize > max {
			max = s.HashSize
		}
	}
	if float64(max)/float64(min) < 100 {
		t.Errorf("hash sizes should span >2 orders of magnitude: [%d, %d]", min, max)
	}
}

func TestFeatureLengthsArePowerLawish(t *testing.T) {
	// Fig 7: mean feature lengths follow a skewed distribution.
	cfg := M3Prod()
	lens := make([]float64, 0, cfg.NumSparse())
	for _, s := range cfg.Sparse {
		lens = append(lens, s.MeanPooled)
	}
	sum := metrics.Summarize(lens)
	if sum.P50 >= sum.Mean {
		t.Errorf("skewed lengths expected: median %v should sit below mean %v", sum.P50, sum.Mean)
	}
	if _, ok := metrics.FitPowerLaw(lens); !ok {
		t.Error("power-law fit should succeed on feature lengths")
	}
}

func TestProdSetup(t *testing.T) {
	s1, err := ProdSetup("M1prod")
	if err != nil || s1.Trainers != 6 || s1.Trainers+s1.SparsePS+s1.DensePS != 14 {
		t.Errorf("M1 setup %+v err %v", s1, err)
	}
	s2, _ := ProdSetup("M2prod")
	if s2.Trainers != 20 || s2.Trainers+s2.SparsePS+s2.DensePS != 36 || s2.OptimalGPUBatch != 3200 {
		t.Errorf("M2 setup %+v", s2)
	}
	s3, _ := ProdSetup("M3prod")
	if s3.Trainers != 8 || s3.HogwildThreads != 4 || s3.OptimalGPUBatch != 800 {
		t.Errorf("M3 setup %+v", s3)
	}
	if _, err := ProdSetup("M4prod"); err == nil {
		t.Error("unknown model must error")
	}
}

func TestFig2Catalog(t *testing.T) {
	cat := Fig2Catalog()
	if len(cat) != 4 {
		t.Fatalf("catalog size %d", len(cat))
	}
	// News Feed trains most frequently (smallest gap).
	for _, c := range cat[1:] {
		if c.FreqEveryHrs <= cat[0].FreqEveryHrs {
			t.Errorf("%s should train less frequently than News Feed", c.Name)
		}
	}
	// Recommendation models dominate training cycles (paper: >50%
	// across all recommendation workloads).
	recShare := 0.0
	for _, c := range cat {
		if c.ModelFamily == "recommendation (DLRM)" {
			recShare += c.ShareOfCycles
		}
	}
	if recShare < 0.5 {
		t.Errorf("recommendation share %v, paper reports >50%%", recShare)
	}
}

func sampleN(f *FleetSampler, n int) []RunSample {
	out := make([]RunSample, n)
	for i := range out {
		out[i] = f.Sample()
	}
	return out
}

func TestFleetSamplerDistributions(t *testing.T) {
	f := NewFleetSampler(1)
	runs := sampleN(f, 4000)
	counts := map[int]int{}
	psAbove := 0
	for _, r := range runs {
		if r.Trainers < 1 || r.Trainers > 50 || r.ParamSrv < 1 || r.ParamSrv > 50 {
			t.Fatalf("run out of range: %+v", r)
		}
		counts[r.Trainers]++
		if r.ParamSrv > 20 {
			psAbove++
		}
	}
	// >40% of runs share the modal trainer count (Fig 9 narrative).
	mode, modeCount := 0, 0
	for k, v := range counts {
		if v > modeCount {
			mode, modeCount = k, v
		}
	}
	if frac := float64(modeCount) / float64(len(runs)); frac < 0.40 {
		t.Errorf("modal trainer count %d covers %v of runs, want >= 0.40", mode, frac)
	}
	// PS counts vary widely: a visible tail above 20 servers.
	if frac := float64(psAbove) / float64(len(runs)); frac < 0.05 {
		t.Errorf("PS tail too thin: %v above 20", frac)
	}
}

func TestFleetSamplerDeterminism(t *testing.T) {
	a := sampleN(NewFleetSampler(3), 100)
	b := sampleN(NewFleetSampler(3), 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("sampler must be deterministic per seed")
		}
	}
}
