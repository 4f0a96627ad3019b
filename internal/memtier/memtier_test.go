package memtier

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
)

func TestPolicyRegistry(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name() != name || p.Capacity() != 4 || p.Len() != 0 {
			t.Errorf("%s: fresh policy state %v/%d/%d", name, p.Name(), p.Capacity(), p.Len())
		}
	}
	if _, err := NewPolicy("belady", 4); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestPoliciesSharedSemantics(t *testing.T) {
	for _, name := range PolicyNames() {
		p, _ := NewPolicy(name, 2)
		if p.Access(Key(0, 1)) {
			t.Errorf("%s: first access must miss", name)
		}
		if !p.Access(Key(0, 1)) {
			t.Errorf("%s: repeat access must hit", name)
		}
		if p.Access(Key(1, 1)) {
			t.Errorf("%s: same row in another table must be a distinct key", name)
		}
		if p.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2", name, p.Len())
		}
		p.Access(Key(0, 2)) // forces one eviction
		if p.Len() != 2 {
			t.Errorf("%s: Len after eviction = %d, want capacity 2", name, p.Len())
		}
		h, m := p.Stats()
		if h != 1 || m != 3 {
			t.Errorf("%s: stats %d/%d, want 1 hit / 3 misses", name, h, m)
		}
		if got := HitRate(p); math.Abs(got-0.25) > 1e-12 {
			t.Errorf("%s: hit rate %v, want 0.25", name, got)
		}
		p.Reset()
		if p.Len() != 0 || HitRate(p) != 0 {
			t.Errorf("%s: reset did not clear state", name)
		}
	}
}

func TestPoliciesPanicOnZeroCapacity(t *testing.T) {
	for _, ctor := range []func(){
		func() { NewLRU(0) }, func() { NewLFU(0) }, func() { NewCLOCK(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on zero capacity")
				}
			}()
			ctor()
		}()
	}
}

func TestLRUEvictsLeastRecent(t *testing.T) {
	p := NewLRU(2)
	p.Access(1)
	p.Access(2)
	p.Access(1) // 2 is now least recent
	p.Access(3) // evicts 2
	if !p.Access(1) {
		t.Error("LRU must have kept key 1")
	}
	if p.Access(2) {
		t.Error("LRU must have evicted key 2")
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	p := NewLFU(2)
	p.Access(1)
	p.Access(1)
	p.Access(1)
	p.Access(2)
	p.Access(3) // evicts 2 (freq 1) despite 2 being more recent than 1
	if !p.Access(1) {
		t.Error("LFU must keep the frequent key")
	}
	if p.Access(2) {
		t.Error("LFU must evict the infrequent key")
	}
}

func TestCLOCKSecondChance(t *testing.T) {
	p := NewCLOCK(2)
	p.Access(1)
	p.Access(2)
	p.Access(1) // re-reference 1
	p.Access(3) // sweep clears both refs; victim preference follows hand
	if p.Len() != 2 {
		t.Fatalf("Len = %d", p.Len())
	}
	if !p.Access(3) {
		t.Error("CLOCK must retain the just-inserted key")
	}
}

func TestHitRateZipfShape(t *testing.T) {
	// Monotone in capacity, 1 at full capacity, higher skew -> higher
	// hit rate at equal capacity.
	prev := 0.0
	for _, c := range []int{10, 100, 1000, 10000} {
		h := HitRateZipf(1.2, 100000, c)
		if h < prev {
			t.Errorf("hit rate fell with capacity: %v -> %v", prev, h)
		}
		prev = h
	}
	if HitRateZipf(1.2, 1000, 1000) != 1 {
		t.Error("full-capacity hit rate must be 1")
	}
	if HitRateZipf(1.2, 1000, 0) != 0 {
		t.Error("zero-capacity hit rate must be 0")
	}
	if lo, hi := HitRateZipf(1.05, 100000, 100), HitRateZipf(1.6, 100000, 100); lo >= hi {
		t.Errorf("higher skew must cache better: s=1.05 %.3f vs s=1.6 %.3f", lo, hi)
	}
	// The §III-A2 claim: a cache holding 1% of rows absorbs far more
	// than 1% of accesses under production-like skew.
	if h := HitRateZipf(1.2, 100000, 1000); h < 0.3 {
		t.Errorf("1%% cache hit rate %v; expected strong locality", h)
	}
}

func TestHitRateFromCountsMatchesPrefixMass(t *testing.T) {
	counts := []uint64{50, 30, 10, 5, 3, 2}
	if h := HitRateFromCounts(counts, 2); math.Abs(h-0.8) > 1e-12 {
		t.Errorf("top-2 mass = %v, want 0.80", h)
	}
	// Unsorted input is tolerated.
	if h := HitRateFromCounts([]uint64{5, 50, 3, 30, 2, 10}, 2); math.Abs(h-0.8) > 1e-12 {
		t.Errorf("unsorted top-2 mass = %v", h)
	}
	if HitRateFromCounts(nil, 10) != 0 {
		t.Error("empty counts must give 0")
	}
}

func TestEstimateHitRateStacksTables(t *testing.T) {
	// One hot table and one cold table: a small shared cache must favor
	// the hot table, so the stacked estimate exceeds the cold table's
	// own hit rate and roughly tracks the hot table's.
	hot := TableDemand{Rows: 10000, Accesses: 100, Skew: 1.2}
	cold := TableDemand{Rows: 1000000, Accesses: 1, Skew: 1.2}
	both := EstimateHitRate([]TableDemand{hot, cold}, 5000)
	hotOnly := EstimateHitRate([]TableDemand{hot}, 5000)
	coldOnly := EstimateHitRate([]TableDemand{cold}, 5000)
	if !(both > coldOnly && both <= hotOnly+1e-9) {
		t.Errorf("stacked %v not between cold %v and hot %v", both, coldOnly, hotOnly)
	}
	// Capacity covering every row: hit rate 1.
	if h := EstimateHitRate([]TableDemand{{Rows: 100, Accesses: 1}}, 100); h != 1 {
		t.Errorf("full coverage = %v", h)
	}
	if EstimateHitRate(nil, 100) != 0 || EstimateHitRate([]TableDemand{hot}, 0) != 0 {
		t.Error("degenerate inputs must give 0")
	}
}

func TestEstimateHitRateMonotoneInCapacity(t *testing.T) {
	tables := []TableDemand{
		{Rows: 50000, Accesses: 30, Skew: 1.2},
		{Rows: 2000000, Accesses: 5, Skew: 1.2},
		{Rows: 300, Accesses: 2, Skew: 1.2},
	}
	prev := -1.0
	for _, c := range []int{100, 1000, 10000, 100000, 1000000} {
		h := EstimateHitRate(tables, c)
		if h < prev-1e-9 {
			t.Errorf("capacity %d: hit rate %v fell below %v", c, h, prev)
		}
		if h < 0 || h > 1 {
			t.Errorf("capacity %d: hit rate %v out of range", c, h)
		}
		prev = h
	}
}

func TestEstimateTracksReplayOnTracedData(t *testing.T) {
	// The analytic estimator (fed the measured counts) must land near
	// the replayed LFU hit rate — it models exactly that cache.
	cfg := core.Config{
		Name:          "memtier-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 20000, 6),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	var batches []*core.MiniBatch
	counts := make([]map[int32]uint64, cfg.NumSparse())
	for f := range counts {
		counts[f] = make(map[int32]uint64)
	}
	for i := 0; i < 30; i++ {
		b := gen.NextBatch(64)
		batches = append(batches, b)
		for f, bag := range b.Bags {
			for _, ix := range bag.Indices {
				counts[f][ix]++
			}
		}
	}
	var demand []TableDemand
	for f, m := range counts {
		cs := make([]uint64, 0, len(m))
		var total uint64
		for _, c := range m {
			cs = append(cs, c)
			total += c
		}
		sortDesc(cs)
		demand = append(demand, TableDemand{Rows: cfg.Sparse[f].HashSize, Accesses: float64(total), Counts: cs})
	}
	const capRows = 2000
	est := EstimateHitRate(demand, capRows)
	lfu, _ := NewPolicy("lfu", capRows)
	measured := Replay(lfu, batches)
	if math.Abs(est-measured) > 0.15 {
		t.Errorf("analytic %v vs replayed LFU %v: divergence > 0.15", est, measured)
	}
}

func sortDesc(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] > s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestOpportunityCurveMonotoneAcrossPolicies(t *testing.T) {
	cfg := core.Config{
		Name:          "curve-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(3, 5000, 5),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.Concat,
	}
	gen := data.NewGenerator(cfg, 11, data.DefaultOptions())
	var batches []*core.MiniBatch
	for i := 0; i < 10; i++ {
		batches = append(batches, gen.NextBatch(64))
	}
	caps := []int{10, 100, 1000, 5000}
	for _, name := range PolicyNames() {
		rates := make([]float64, len(caps))
		for i, c := range caps {
			p, err := NewPolicy(name, c)
			if err != nil {
				t.Fatal(err)
			}
			rates[i] = Replay(p, batches)
		}
		for i := 1; i < len(rates); i++ {
			if rates[i]+1e-9 < rates[i-1] {
				t.Errorf("%s: hit rate fell with capacity: %v", name, rates)
			}
		}
		if rates[len(rates)-1] < 0.3 {
			t.Errorf("%s: large-cache hit rate %v; expected Zipf locality", name, rates)
		}
	}
	if _, err := NewPolicy("belady", caps[0]); err == nil {
		t.Error("unknown policy accepted")
	}
}

// tieredStats builds a model whose tables overflow Big Basin's HBM: one
// hot small table and one cold table far larger than 8-GPU HBM.
func overflowStats() []core.TableStatView {
	cfg := core.Config{
		Name:          "overflow",
		DenseFeatures: 64,
		EmbeddingDim:  64,
		BottomMLP:     []int{64},
		TopMLP:        []int{64},
		Interaction:   core.Concat,
		Sparse: []core.SparseFeature{
			{Name: "hot", HashSize: 1000, MeanPooled: 30, MaxPooled: 32},
			{Name: "cold", HashSize: 960_000_000, MeanPooled: 1, MaxPooled: 32}, // ~229 GB
		},
	}
	return cfg.TableStats()
}

func TestAssignSpillsColdTablesAndCaches(t *testing.T) {
	tiers := hw.BigBasin().MemoryTiers(0)
	asg, err := Assign(overflowStats(), tiers, AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if asg.TableTier[0] != 0 {
		t.Errorf("hot table assigned to tier %d, want HBM", asg.TableTier[0])
	}
	if asg.TableTier[1] == 0 {
		t.Error("cold 229GB table cannot live in 256GB-raw HBM")
	}
	if asg.CacheRows <= 0 || asg.CacheHitRate <= 0 || asg.CacheHitRate >= 1 {
		t.Errorf("cache rows %d hit rate %v; want an active cache", asg.CacheRows, asg.CacheHitRate)
	}
	// Top-tier fraction: resident hot share plus cached cold hits.
	if asg.TopTierFraction() <= asg.Tiers[0].ResidentShare {
		t.Error("cache hits must raise the top-tier lookup fraction")
	}
	var frac float64
	for _, tl := range asg.Tiers {
		frac += tl.LookupFraction
	}
	if math.Abs(frac-1) > 1e-9 {
		t.Errorf("lookup fractions sum to %v, want 1", frac)
	}
}

func TestAssignAllFitsTopTierDegeneratesToFlat(t *testing.T) {
	stats := []core.TableStatView{
		{Index: 0, Name: "small", HashSize: 1000, Bytes: 1000 * 64 * 4, MeanPooled: 5},
	}
	asg, err := Assign(stats, hw.BigBasin().MemoryTiers(0), AssignOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if asg.CacheRows != 0 || asg.CacheHitRate != 0 {
		t.Errorf("no spill must mean no cache: %+v", asg)
	}
	if asg.TopTierFraction() != 1 {
		t.Errorf("all lookups must be served by HBM, got %v", asg.TopTierFraction())
	}
}

func TestAssignUsesProfileOrdering(t *testing.T) {
	// Two same-sized tables; the config says table 0 is hotter, but the
	// trace says table 1 is. The profile must win.
	stats := []core.TableStatView{
		{Index: 0, Name: "a", HashSize: 1 << 20, Bytes: 40 << 30, MeanPooled: 10},
		{Index: 1, Name: "b", HashSize: 1 << 20, Bytes: 40 << 30, MeanPooled: 1},
		{Index: 2, Name: "c", HashSize: 1 << 20, Bytes: 170 << 30, MeanPooled: 1},
	}
	profile := [][]uint64{{10, 5}, {1000, 800, 600}, {1, 1}}
	tiers := hw.BigBasin().MemoryTiers(0) // HBM usable = 192 GB
	asg, err := Assign(stats, tiers, AssignOptions{Profile: profile})
	if err != nil {
		t.Fatal(err)
	}
	if asg.TableTier[1] != 0 {
		t.Errorf("traced-hot table must win HBM, got tier %d", asg.TableTier[1])
	}
	if asg.TableTier[2] == 0 {
		t.Error("traced-cold large table must spill")
	}
}

func TestAssignErrorsWhenHierarchyTooSmall(t *testing.T) {
	stats := []core.TableStatView{
		{Index: 0, Name: "huge", HashSize: 1 << 30, Bytes: 64 << 40, MeanPooled: 1}, // 64 TB
	}
	if _, err := Assign(stats, hw.BigBasin().MemoryTiers(0), AssignOptions{}); err == nil {
		t.Error("64TB table must not fit the hierarchy")
	}
	if _, err := Assign(nil, hw.BigBasin().MemoryTiers(0), AssignOptions{}); err == nil {
		t.Error("empty stats accepted")
	}
	if _, err := Assign(stats, nil, AssignOptions{}); err == nil {
		t.Error("empty hierarchy accepted")
	}
}

func TestReserveAndUsable(t *testing.T) {
	for _, k := range []hw.MemTierKind{hw.TierHBM, hw.TierLocalDRAM, hw.TierRemoteDRAM, hw.TierNVM} {
		r := TierReserve(k)
		if r <= 0 || r >= 1 {
			t.Errorf("%v reserve %v", k, r)
		}
	}
	tier := hw.MemTier{Kind: hw.TierHBM, CapacityBytes: 100}
	if UsableBytes(tier) != 75 {
		t.Errorf("usable = %d, want 75", UsableBytes(tier))
	}
}
