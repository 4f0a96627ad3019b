package memtier

import (
	"repro/internal/core"
)

// Replay streams every embedding lookup of the batches through the policy
// in arrival order and returns the resulting hit rate — the measured
// counterpart of EstimateHitRate.
func Replay(p Policy, batches []*core.MiniBatch) float64 {
	for _, b := range batches {
		for f, bag := range b.Bags {
			for _, ix := range bag.Indices {
				p.Access(Key(f, ix))
			}
		}
	}
	return HitRate(p)
}

// DemandFromProfile converts table stats plus a recorded access profile
// (per-feature row counts sorted descending, index-aligned with the
// stats — trace.Collector.RowFrequencies output) into the TableDemand
// slice the analytic hit-rate estimators consume. Tables absent from the
// profile fall back to their configured mean pooled length and a Zipf
// popularity with the given skew (<= 0 selects DefaultSkew).
func DemandFromProfile(stats []core.TableStatView, profile [][]uint64, skew float64) []TableDemand {
	demand := make([]TableDemand, len(stats))
	for i, s := range stats {
		demand[i] = TableDemand{Rows: s.HashSize, Accesses: s.MeanPooled, Skew: skew}
		if i < len(profile) && len(profile[i]) > 0 {
			var total uint64
			for _, c := range profile[i] {
				total += c
			}
			demand[i].Counts = profile[i]
			demand[i].Accesses = float64(total)
		}
	}
	return demand
}
