package trace

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
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

// accesses sums one table's row counts.
func accesses(freqs []uint64) uint64 {
	var n uint64
	for _, f := range freqs {
		n += f
	}
	return n
}

func TestCollectorCounts(t *testing.T) {
	cfg := traceCfg()
	c := NewCollector(cfg)
	c.Record(0, 5)
	c.Record(0, 5)
	c.Record(1, 7)
	freqs := c.RowFrequencies()
	if accesses(freqs[0]) != 2 || len(freqs[0]) != 1 {
		t.Errorf("table0 frequencies %v", freqs[0])
	}
	if accesses(freqs[1]) != 1 {
		t.Errorf("table1 frequencies %v", freqs[1])
	}
	if len(freqs[2]) != 0 {
		t.Errorf("untouched table frequencies %v", freqs[2])
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
	for f, freqs := range c.RowFrequencies() {
		n := accesses(freqs)
		if n == 0 {
			t.Fatalf("table %d saw no accesses", f)
		}
		if mean := float64(n) / float64(examples); mean < 1 || mean > 32 {
			t.Errorf("table %d mean/example %v", f, mean)
		}
		// Zipf-popular rows: the top 1% of touched rows should absorb far
		// more than 1% of the accesses.
		top := max(len(freqs)/100, 1)
		if share := float64(accesses(freqs[:top])) / float64(n); share < 0.02 {
			t.Errorf("table %d top-1%% share %v; expected locality", f, share)
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
	var freqs []float64
	for _, rows := range c.RowFrequencies() {
		freqs = append(freqs, float64(accesses(rows)))
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
	freqs := c.RowFrequencies()
	if small, big := accesses(freqs[0]), accesses(freqs[1]); small <= big {
		t.Errorf("small table accessed %d times, big table %d; paper observes size does not predict frequency", small, big)
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
