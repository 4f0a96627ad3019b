// Package trace captures and characterizes embedding-table access
// patterns — the paper's §III-A2 analysis (Fig 6, Fig 7): per-table
// access frequencies follow a power law, frequency does not correlate
// with table size, and the skew creates caching opportunities.
//
// CacheOpportunity replays recorded batches through the memtier
// package's LRU to quantify that caching opportunity, and Collector
// exports the row-frequency profiles the memtier planner consumes for
// trace-driven tier assignment.
package trace

import (
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/memtier"
)

// Collector counts per-row accesses per table.
type Collector struct {
	cfg    core.Config
	counts []map[int32]uint64
	totals []uint64
}

// NewCollector prepares a collector for the config's tables.
func NewCollector(cfg core.Config) *Collector {
	c := &Collector{cfg: cfg}
	c.counts = make([]map[int32]uint64, cfg.NumSparse())
	c.totals = make([]uint64, cfg.NumSparse())
	for i := range c.counts {
		c.counts[i] = make(map[int32]uint64)
	}
	return c
}

// Record notes one access to table feature at row ix.
func (c *Collector) Record(feature int, ix int32) {
	c.counts[feature][ix]++
	c.totals[feature]++
}

// RecordBatch ingests every lookup in the batch.
func (c *Collector) RecordBatch(b *core.MiniBatch) {
	for f, bag := range b.Bags {
		for _, ix := range bag.Indices {
			c.Record(f, ix)
		}
	}
}

// TableProfile summarizes one table's observed accesses.
type TableProfile struct {
	Feature    int
	Name       string
	HashSize   int
	Bytes      int64
	Accesses   uint64
	UniqueRows int
	// Top1PctShare is the fraction of accesses absorbed by the most
	// popular 1% of touched rows — the locality that makes caching
	// (§III-A2) attractive.
	Top1PctShare float64
	// MeanPerExample is the observed mean pooled length.
	MeanPerExample float64
}

// Profiles computes per-table summaries. examples is the number of
// training examples ingested.
func (c *Collector) Profiles(examples int) []TableProfile {
	out := make([]TableProfile, c.cfg.NumSparse())
	for f := range out {
		p := TableProfile{
			Feature:  f,
			Name:     c.cfg.Sparse[f].Name,
			HashSize: c.cfg.Sparse[f].HashSize,
			Bytes:    int64(c.cfg.Sparse[f].HashSize) * int64(c.cfg.EmbeddingDim) * 4,
			Accesses: c.totals[f],
		}
		p.UniqueRows = len(c.counts[f])
		if examples > 0 {
			p.MeanPerExample = float64(c.totals[f]) / float64(examples)
		}
		if p.UniqueRows > 0 && p.Accesses > 0 {
			freqs := make([]uint64, 0, p.UniqueRows)
			for _, n := range c.counts[f] {
				freqs = append(freqs, n)
			}
			sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
			top := p.UniqueRows / 100
			if top < 1 {
				top = 1
			}
			var sum uint64
			for _, n := range freqs[:top] {
				sum += n
			}
			p.Top1PctShare = float64(sum) / float64(p.Accesses)
		}
		out[f] = p
	}
	return out
}

// SizeFrequencyCorrelation returns the Pearson correlation between table
// size and access count; the paper observes it is weak ("the access
// frequency does not always correlate with the embedding table size").
func (c *Collector) SizeFrequencyCorrelation() float64 {
	n := len(c.totals)
	if n < 2 {
		return 0
	}
	var mx, my float64
	for f := 0; f < n; f++ {
		mx += float64(c.cfg.Sparse[f].HashSize)
		my += float64(c.totals[f])
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for f := 0; f < n; f++ {
		dx := float64(c.cfg.Sparse[f].HashSize) - mx
		dy := float64(c.totals[f]) - my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / (math.Sqrt(sxx) * math.Sqrt(syy))
}

// RowFrequencies exports per-table row access counts sorted descending —
// the profile memtier.Assign and memtier.EstimateHitRate consume for
// trace-driven tier assignment. The outer slice is index-aligned with the
// config's sparse features; untouched tables yield empty slices.
func (c *Collector) RowFrequencies() [][]uint64 {
	out := make([][]uint64, len(c.counts))
	for f, m := range c.counts {
		freqs := make([]uint64, 0, len(m))
		for _, n := range m {
			freqs = append(freqs, n)
		}
		sort.Slice(freqs, func(i, j int) bool { return freqs[i] > freqs[j] })
		out[f] = freqs
	}
	return out
}

// CacheOpportunity replays the batches through LRU caches of the given
// row capacities and returns the hit rate per capacity — the §III-A2
// caching-opportunity curve. memtier.OpportunityCurve generalizes this
// over eviction policies.
func CacheOpportunity(batches []*core.MiniBatch, capacities []int) []float64 {
	out, err := memtier.OpportunityCurve("lru", batches, capacities)
	if err != nil {
		panic(err) // unreachable: "lru" is always registered
	}
	return out
}
