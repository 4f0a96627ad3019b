package embedding

import (
	"sort"
)

// TableStat summarizes a table for partitioning decisions without needing
// the weights themselves: its storage size and its access intensity
// (mean pooled lookups per example, Fig 6/7 of the paper).
type TableStat struct {
	Index      int     // position in the model's table list
	Bytes      int64   // fp32 storage footprint
	MeanPooled float64 // mean lookups per example for this feature
}

// Assignment maps table index -> shard/device index.
type Assignment map[int]int

// ShardLoad reports the per-shard totals produced by an assignment.
type ShardLoad struct {
	Bytes   []int64   // storage per shard
	Lookups []float64 // mean lookups/example per shard
}

// TableWiseGreedy assigns whole tables to n shards, balancing a combined
// load metric. The paper notes (§III-A2) that access frequency does not
// correlate with table size, so balancing on bytes alone creates lookup
// hot spots; the weight parameter interpolates between balancing bytes
// (weight=0) and balancing lookups (weight=1).
func TableWiseGreedy(stats []TableStat, n int, weight float64) (Assignment, ShardLoad) {
	if n <= 0 {
		panic("embedding: shard count must be positive")
	}
	// Normalizers so bytes and lookups are comparable.
	var totB int64
	var totL float64
	for _, s := range stats {
		totB += s.Bytes
		totL += s.MeanPooled
	}
	if totB == 0 {
		totB = 1
	}
	if totL == 0 {
		totL = 1
	}
	cost := func(s TableStat) float64 {
		return (1-weight)*float64(s.Bytes)/float64(totB) + weight*s.MeanPooled/totL
	}
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cost(stats[order[a]]) > cost(stats[order[b]]) })

	asg := make(Assignment, len(stats))
	load := ShardLoad{Bytes: make([]int64, n), Lookups: make([]float64, n)}
	shardCost := make([]float64, n)
	for _, oi := range order {
		s := stats[oi]
		best := 0
		for j := 1; j < n; j++ {
			if shardCost[j] < shardCost[best] {
				best = j
			}
		}
		asg[s.Index] = best
		shardCost[best] += cost(s)
		load.Bytes[best] += s.Bytes
		load.Lookups[best] += s.MeanPooled
	}
	return asg, load
}

// MaxOverMean returns the imbalance factor (max shard load / mean shard
// load) for the given per-shard loads; 1.0 is perfectly balanced.
func MaxOverMean(loads []float64) float64 {
	if len(loads) == 0 {
		return 1
	}
	var sum, max float64
	for _, v := range loads {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	return max / (sum / float64(len(loads)))
}
