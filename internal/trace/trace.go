// Package trace records embedding-table accesses, the input of the
// paper's §III-A2 skew analysis: Collector counts per-row accesses and
// exports the row-frequency profiles that the memtier planner and the
// doctor's skew summaries consume.
package trace

import (
	"sort"

	"repro/internal/core"
)

// Collector counts per-row accesses per table.
type Collector struct {
	counts []map[int32]uint64
}

// NewCollector prepares a collector for the config's tables.
func NewCollector(cfg core.Config) *Collector {
	c := &Collector{counts: make([]map[int32]uint64, cfg.NumSparse())}
	for i := range c.counts {
		c.counts[i] = make(map[int32]uint64)
	}
	return c
}

// Record notes one access to table feature at row ix.
func (c *Collector) Record(feature int, ix int32) {
	c.counts[feature][ix]++
}

// RecordBatch ingests every lookup in the batch.
func (c *Collector) RecordBatch(b *core.MiniBatch) {
	for f, bag := range b.Bags {
		for _, ix := range bag.Indices {
			c.Record(f, ix)
		}
	}
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
