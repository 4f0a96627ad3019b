package trace

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/memtier"
	"repro/internal/metrics"
)

func traceCfg() core.Config {
	return core.Config{
		Name:          "trace-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(6, 5000, 6),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
}

func TestCollectorCounts(t *testing.T) {
	cfg := traceCfg()
	c := NewCollector(cfg)
	c.Record(0, 5)
	c.Record(0, 5)
	c.Record(1, 7)
	profs := c.Profiles(10)
	if profs[0].Accesses != 2 || profs[0].UniqueRows != 1 {
		t.Errorf("table0 profile %+v", profs[0])
	}
	if profs[1].Accesses != 1 {
		t.Errorf("table1 profile %+v", profs[1])
	}
	if profs[0].MeanPerExample != 0.2 {
		t.Errorf("mean per example %v", profs[0].MeanPerExample)
	}
	if profs[2].Accesses != 0 || profs[2].Top1PctShare != 0 {
		t.Errorf("untouched table profile %+v", profs[2])
	}
}

func TestRecordBatchAndProfiles(t *testing.T) {
	cfg := traceCfg()
	gen := data.NewGenerator(cfg, 1, data.DefaultOptions())
	c := NewCollector(cfg)
	examples := 0
	for i := 0; i < 20; i++ {
		b := gen.NextBatch(64)
		c.RecordBatch(b)
		examples += 64
	}
	profs := c.Profiles(examples)
	for _, p := range profs {
		if p.Accesses == 0 {
			t.Fatalf("table %d saw no accesses", p.Feature)
		}
		if p.MeanPerExample < 1 || p.MeanPerExample > 32 {
			t.Errorf("table %d mean/example %v", p.Feature, p.MeanPerExample)
		}
		// Zipf-popular rows: top 1% should absorb far more than 1%.
		if p.Top1PctShare < 0.02 {
			t.Errorf("table %d top-1%% share %v; expected locality", p.Feature, p.Top1PctShare)
		}
	}
}

func TestAccessFrequenciesPowerLaw(t *testing.T) {
	// Tables with very different pooled lengths produce a skewed
	// access-frequency series that fits a power law (Fig 7 narrative).
	cfg := traceCfg()
	cfg.Sparse = []core.SparseFeature{
		{Name: "a", HashSize: 1000, MeanPooled: 30, MaxPooled: 32},
		{Name: "b", HashSize: 1000, MeanPooled: 10, MaxPooled: 32},
		{Name: "c", HashSize: 1000, MeanPooled: 3, MaxPooled: 32},
		{Name: "d", HashSize: 1000, MeanPooled: 1, MaxPooled: 32},
	}
	gen := data.NewGenerator(cfg, 2, data.DefaultOptions())
	c := NewCollector(cfg)
	for i := 0; i < 10; i++ {
		c.RecordBatch(gen.NextBatch(64))
	}
	freqs := make([]float64, len(c.totals))
	for i, n := range c.totals {
		freqs[i] = float64(n)
	}
	if _, ok := metrics.FitPowerLaw(freqs); !ok {
		t.Error("power-law fit failed")
	}
	if freqs[0] <= freqs[3] {
		t.Error("hot feature must out-access cold feature")
	}
}

func TestSizeFrequencyCorrelationWeak(t *testing.T) {
	// Big tables accessed rarely, small tables accessed often: negative
	// or weak correlation, echoing §III-A2.
	cfg := traceCfg()
	cfg.Sparse = []core.SparseFeature{
		{Name: "small-hot", HashSize: 100, MeanPooled: 20, MaxPooled: 32},
		{Name: "big-cold", HashSize: 1_000_000, MeanPooled: 1, MaxPooled: 32},
		{Name: "mid", HashSize: 10_000, MeanPooled: 5, MaxPooled: 32},
	}
	c := NewCollector(cfg)
	gen := data.NewGenerator(cfg, 3, data.DefaultOptions())
	for i := 0; i < 10; i++ {
		c.RecordBatch(gen.NextBatch(64))
	}
	if corr := c.SizeFrequencyCorrelation(); corr > 0.5 {
		t.Errorf("size-frequency correlation %v; paper observes weak/none", corr)
	}
}

func TestRowFrequenciesSortedAndAligned(t *testing.T) {
	cfg := traceCfg()
	c := NewCollector(cfg)
	c.Record(0, 5)
	c.Record(0, 5)
	c.Record(0, 9)
	c.Record(2, 1)
	freqs := c.RowFrequencies()
	if len(freqs) != cfg.NumSparse() {
		t.Fatalf("profile length %d", len(freqs))
	}
	if len(freqs[0]) != 2 || freqs[0][0] != 2 || freqs[0][1] != 1 {
		t.Errorf("table0 frequencies %v, want [2 1]", freqs[0])
	}
	if len(freqs[1]) != 0 || len(freqs[2]) != 1 {
		t.Errorf("tables 1/2 frequencies %v / %v", freqs[1], freqs[2])
	}
}

func TestLRUBasics(t *testing.T) {
	lru := memtier.NewLRU(2)
	if lru.Access(memtier.Key(0, 1)) {
		t.Error("first access must miss")
	}
	if !lru.Access(memtier.Key(0, 1)) {
		t.Error("repeat access must hit")
	}
	lru.Access(memtier.Key(0, 2))
	lru.Access(memtier.Key(0, 3)) // evicts (0,1)
	if lru.Access(memtier.Key(0, 1)) {
		t.Error("evicted entry must miss")
	}
	if lru.Len() != 2 {
		t.Errorf("Len = %d", lru.Len())
	}
	if hr := memtier.HitRate(lru); math.Abs(hr-0.2) > 1e-9 {
		t.Errorf("HitRate = %v, want 1/5", hr)
	}
}

func TestLRUDistinguishesTables(t *testing.T) {
	lru := memtier.NewLRU(10)
	lru.Access(memtier.Key(0, 1))
	if lru.Access(memtier.Key(1, 1)) {
		t.Error("same row in different tables must be distinct keys")
	}
}

func TestLRUPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	memtier.NewLRU(0)
}

func TestCacheOpportunityMonotone(t *testing.T) {
	cfg := traceCfg()
	gen := data.NewGenerator(cfg, 4, data.DefaultOptions())
	var batches []*core.MiniBatch
	for i := 0; i < 10; i++ {
		batches = append(batches, gen.NextBatch(64))
	}
	caps := []int{10, 100, 1000, 10000}
	rates := CacheOpportunity(batches, caps)
	for i := 1; i < len(rates); i++ {
		if rates[i]+1e-9 < rates[i-1] {
			t.Errorf("hit rate must not fall with capacity: %v", rates)
		}
	}
	// Zipf access gives a sizeable hit rate even with a modest cache.
	if rates[len(rates)-1] < 0.3 {
		t.Errorf("large-cache hit rate %v; expected Zipf locality", rates[len(rates)-1])
	}
}

func TestEmptyHitRate(t *testing.T) {
	if memtier.HitRate(memtier.NewLRU(4)) != 0 {
		t.Error("empty cache hit rate should be 0")
	}
}
