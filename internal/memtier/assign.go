package memtier

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
)

// TierReserve returns the fraction of a tier's raw capacity withheld from
// embedding packing: HBM keeps room for activations/workspace, DRAM for
// the OS and input pipeline, NVM for filesystem slack. The HBM/DRAM
// values match the placement package's packing reserves so a
// single-tier assignment degenerates to the flat strategies exactly.
func TierReserve(k hw.MemTierKind) float64 {
	switch k {
	case hw.TierHBM:
		return 0.25
	case hw.TierLocalDRAM, hw.TierRemoteDRAM:
		return 0.25
	default:
		return 0.10
	}
}

// UsableBytes returns the packable capacity of a tier after its reserve.
func UsableBytes(t hw.MemTier) int64 {
	return int64(float64(t.CapacityBytes) * (1 - TierReserve(t.Kind)))
}

// AssignOptions tune trace-driven tier assignment.
type AssignOptions struct {
	// Profile optionally carries per-feature row access counts sorted
	// descending (trace.Collector.RowFrequencies output, index-aligned
	// with the config's sparse features). When present it drives both
	// table ordering and cache hit-rate estimation; when nil both fall
	// back to configured mean pooled lengths and a Zipf(Skew) row law.
	Profile [][]uint64
	// Skew is the power-law exponent assumed for untraced rows;
	// <= 0 selects DefaultSkew.
	Skew float64
	// CacheFraction is the fraction of the top tier's usable capacity
	// reserved as a hot-row cache for tables resident in lower tiers.
	// It is only spent when tables actually spill; < 0 disables the
	// cache, 0 selects DefaultCacheFraction.
	CacheFraction float64
}

// DefaultCacheFraction is the share of top-tier capacity dedicated to the
// hot-row cache when tables spill to lower tiers.
const DefaultCacheFraction = 0.10

// TierLoad is one tier's share of an assignment.
type TierLoad struct {
	Tier hw.MemTier
	// Tables lists resident table indices (ascending).
	Tables []int
	// Bytes is the resident embedding storage.
	Bytes int64
	// ResidentShare is the fraction of all lookups targeting resident
	// tables, before hot-row caching redirects traffic.
	ResidentShare float64
	// LookupFraction is the fraction of all lookups this tier actually
	// serves after the top-tier cache absorbs hits for lower tiers.
	LookupFraction float64
}

// Assignment is a feasibility-checked mapping of embedding tables onto a
// memory hierarchy plus the hot-row cache carved out of the top tier.
type Assignment struct {
	// Tiers holds per-tier loads, fastest first, index-aligned with the
	// hierarchy it was built from. Unused trailing tiers are included
	// with zero load so callers can render the full hierarchy.
	Tiers []TierLoad
	// TableTier maps each table index to its tier index.
	TableTier []int
	// CacheBytes / CacheRows describe the top-tier hot-row cache
	// (0 when nothing spilled or caching is disabled).
	CacheBytes int64
	CacheRows  int
	// CacheHitRate is the estimated stationary hit rate of that cache
	// over the lookup stream of spilled tables.
	CacheHitRate float64
}

// TopTierFraction returns the fraction of all lookups served by the
// fastest tier (resident tables plus cache hits).
func (a Assignment) TopTierFraction() float64 {
	if len(a.Tiers) == 0 {
		return 0
	}
	return a.Tiers[0].LookupFraction
}

// SpilledShare returns the fraction of lookups targeting tables resident
// below the top tier (before caching).
func (a Assignment) SpilledShare() float64 {
	var s float64
	for _, t := range a.Tiers[1:] {
		s += t.ResidentShare
	}
	return s
}

// Assign packs the tables onto the hierarchy hottest-first and carves a
// hot-row cache out of the top tier when tables spill. stats comes from
// core.Config.TableStats; tiers from hw.Platform.MemoryTiers (ordered
// fastest to slowest). It fails when the hierarchy's total usable
// capacity cannot hold the model.
func Assign(stats []core.TableStatView, tiers []hw.MemTier, opts AssignOptions) (Assignment, error) {
	if len(stats) == 0 {
		return Assignment{}, fmt.Errorf("memtier: no tables to assign")
	}
	if len(tiers) == 0 {
		return Assignment{}, fmt.Errorf("memtier: empty hierarchy")
	}
	if opts.CacheFraction == 0 {
		opts.CacheFraction = DefaultCacheFraction
	}

	// Per-table access rates: traced totals when profiled, configured
	// mean pooled lengths otherwise.
	access := make([]float64, len(stats))
	var totalAccess float64
	for i, s := range stats {
		access[i] = s.MeanPooled
		if i < len(opts.Profile) && len(opts.Profile[i]) > 0 {
			var sum uint64
			for _, c := range opts.Profile[i] {
				sum += c
			}
			if sum > 0 {
				access[i] = float64(sum)
			}
		}
		totalAccess += access[i]
	}

	// Hottest-density-first: accesses per byte, the order that maximizes
	// the lookup share served by the fast tiers per byte spent.
	order := make([]int, len(stats))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da := access[order[a]] / float64(stats[order[a]].Bytes)
		db := access[order[b]] / float64(stats[order[b]].Bytes)
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	pack := func(topTierBudget int64) (Assignment, bool) {
		asg := Assignment{
			Tiers:     make([]TierLoad, len(tiers)),
			TableTier: make([]int, len(stats)),
		}
		free := make([]int64, len(tiers))
		for t, tier := range tiers {
			asg.Tiers[t].Tier = tier
			free[t] = UsableBytes(tier)
		}
		free[0] = topTierBudget
		for _, i := range order {
			placed := false
			for t := range tiers {
				if stats[i].Bytes <= free[t] {
					free[t] -= stats[i].Bytes
					asg.TableTier[i] = t
					asg.Tiers[t].Tables = append(asg.Tiers[t].Tables, i)
					asg.Tiers[t].Bytes += stats[i].Bytes
					asg.Tiers[t].ResidentShare += access[i] / totalAccess
					placed = true
					break
				}
			}
			if !placed {
				return Assignment{}, false
			}
		}
		for t := range asg.Tiers {
			sort.Ints(asg.Tiers[t].Tables)
		}
		return asg, true
	}

	// First try without a cache: if everything fits in the top tier the
	// assignment degenerates to the flat fast-tier placement.
	topUsable := UsableBytes(tiers[0])
	asg, ok := pack(topUsable)
	if !ok {
		return Assignment{}, fmt.Errorf(
			"memtier: %s of embeddings exceed the hierarchy's usable capacity",
			core.HumanBytes(totalBytes(stats)))
	}
	if asg.SpilledShare() == 0 || opts.CacheFraction < 0 {
		for t := range asg.Tiers {
			asg.Tiers[t].LookupFraction = asg.Tiers[t].ResidentShare
		}
		return asg, nil
	}

	// Tables spill: re-pack with part of the top tier held back as a
	// hot-row cache, then estimate its stationary hit rate over the
	// spilled tables' access stream.
	cacheBytes := int64(float64(topUsable) * opts.CacheFraction)
	cached, ok := pack(topUsable - cacheBytes)
	if ok {
		asg = cached
	} else {
		// The hierarchy is too tight to give up cache space; keep the
		// uncached packing.
		cacheBytes = 0
	}
	// Size cache rows by the access-weighted row footprint of the
	// spilled tables — the rows the cache will actually hold.
	var demand []TableDemand
	var rowBytesW, accessW float64
	for i, t := range asg.TableTier {
		if t == 0 {
			continue
		}
		rowBytesW += access[i] * float64(stats[i].Bytes) / float64(stats[i].HashSize)
		accessW += access[i]
		d := TableDemand{Rows: stats[i].HashSize, Accesses: access[i], Skew: opts.Skew}
		if i < len(opts.Profile) {
			d.Counts = opts.Profile[i]
		}
		demand = append(demand, d)
	}
	rowBytes := int64(4)
	if accessW > 0 && rowBytesW > 0 {
		rowBytes = int64(rowBytesW / accessW)
	}
	if rowBytes <= 0 {
		rowBytes = 4
	}
	asg.CacheBytes = cacheBytes
	asg.CacheRows = int(cacheBytes / rowBytes)
	if asg.CacheRows > 0 {
		asg.CacheHitRate = EstimateHitRate(demand, asg.CacheRows)
	}
	spilled := asg.SpilledShare()
	asg.Tiers[0].LookupFraction = asg.Tiers[0].ResidentShare + asg.CacheHitRate*spilled
	for t := 1; t < len(asg.Tiers); t++ {
		asg.Tiers[t].LookupFraction = asg.Tiers[t].ResidentShare * (1 - asg.CacheHitRate)
	}
	return asg, nil
}

func totalBytes(stats []core.TableStatView) int64 {
	var b int64
	for _, s := range stats {
		b += s.Bytes
	}
	return b
}
