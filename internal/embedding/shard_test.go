package embedding

import (
	"testing"

	"repro/internal/xrand"
)

func makeStats(n int, seed int64) []TableStat {
	rng := xrand.New(seed)
	stats := make([]TableStat, n)
	for i := range stats {
		stats[i] = TableStat{
			Index:      i,
			Bytes:      int64(1+rng.Intn(1000)) * 1 << 20,
			MeanPooled: 1 + 30*rng.Float64(),
		}
	}
	return stats
}

func TestTableWiseGreedyCoversAllTables(t *testing.T) {
	stats := makeStats(40, 1)
	asg, load := TableWiseGreedy(stats, 8, 0.5)
	if len(asg) != 40 {
		t.Fatalf("assignment covers %d tables, want 40", len(asg))
	}
	var totB int64
	for _, b := range load.Bytes {
		totB += b
	}
	var wantB int64
	for _, s := range stats {
		wantB += s.Bytes
	}
	if totB != wantB {
		t.Errorf("shard bytes sum %d != total %d", totB, wantB)
	}
	for _, shard := range asg {
		if shard < 0 || shard >= 8 {
			t.Fatalf("shard index %d out of range", shard)
		}
	}
}

func TestTableWiseGreedyBalance(t *testing.T) {
	stats := makeStats(64, 2)
	_, loadB := TableWiseGreedy(stats, 8, 0.0) // balance bytes
	bytesF := make([]float64, 8)
	for i, b := range loadB.Bytes {
		bytesF[i] = float64(b)
	}
	if imb := MaxOverMean(bytesF); imb > 1.3 {
		t.Errorf("byte-balanced greedy imbalance %v > 1.3", imb)
	}
	_, loadL := TableWiseGreedy(stats, 8, 1.0) // balance lookups
	if imb := MaxOverMean(loadL.Lookups); imb > 1.3 {
		t.Errorf("lookup-balanced greedy imbalance %v > 1.3", imb)
	}
}

func TestTableWiseGreedySingleShard(t *testing.T) {
	stats := makeStats(10, 3)
	asg, _ := TableWiseGreedy(stats, 1, 0.5)
	for _, s := range asg {
		if s != 0 {
			t.Fatal("single shard must receive everything")
		}
	}
}

func TestTableWiseGreedyPanicsOnZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TableWiseGreedy(makeStats(3, 4), 0, 0.5)
}

func TestMaxOverMean(t *testing.T) {
	if v := MaxOverMean([]float64{1, 1, 1, 1}); v != 1 {
		t.Errorf("balanced MaxOverMean = %v", v)
	}
	if v := MaxOverMean([]float64{4, 0, 0, 0}); v != 4 {
		t.Errorf("MaxOverMean = %v, want 4", v)
	}
	if v := MaxOverMean(nil); v != 1 {
		t.Errorf("MaxOverMean(nil) = %v, want 1", v)
	}
	if v := MaxOverMean([]float64{0, 0}); v != 1 {
		t.Errorf("MaxOverMean(zeros) = %v, want 1", v)
	}
}
