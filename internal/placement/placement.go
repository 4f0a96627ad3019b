// Package placement implements the embedding-table placement strategies
// of §IV-B1 / Fig 8: on the GPUs' HBM, in the GPU server's system memory,
// in the system memory of remote CPU parameter servers, or a hybrid of
// GPU and system memory. It answers the capacity question — does this
// model fit, and with how many devices/servers — while the perfmodel
// package answers the speed question for feasible plans.
package placement

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memtier"
)

// Strategy enumerates the placement options of Fig 8.
type Strategy int

const (
	// GPUMemory distributes tables across the accelerators' HBM
	// (table-wise).
	GPUMemory Strategy = iota
	// SystemMemory keeps tables in the GPU server's host DRAM.
	SystemMemory
	// RemoteCPU shards tables across remote CPU parameter servers.
	RemoteCPU
	// Hybrid places the hottest tables that fit on GPU HBM and spills
	// the rest to host DRAM.
	Hybrid
	// Tiered stages tables across the platform's full memory hierarchy
	// (HBM, host DRAM, remote DRAM, NVM) hottest-first and reserves
	// leftover HBM as a hot-row cache — the memtier subsystem's
	// trace-driven extension of Hybrid.
	Tiered
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case GPUMemory:
		return "GPUMemory"
	case SystemMemory:
		return "SystemMemory"
	case RemoteCPU:
		return "RemoteCPU"
	case Hybrid:
		return "Hybrid"
	case Tiered:
		return "Tiered"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

const (
	// gpuReserveFraction of HBM is withheld for activations,
	// workspace, and optimizer scratch when packing tables.
	gpuReserveFraction = 0.25
	// hostReserveFraction of system DRAM is withheld for the OS, the
	// input pipeline, and dense parameters.
	hostReserveFraction = 0.25
)

// Plan is a concrete, feasibility-checked placement.
type Plan struct {
	Strategy Strategy
	Platform hw.Platform

	// EmbGPUs is the number of accelerators holding embedding shards
	// (GPUMemory/Hybrid). Fig 12's throughput collapse comes from this
	// number growing with hash size.
	EmbGPUs int
	// RemotePS is the number of remote parameter servers (RemoteCPU).
	RemotePS int
	// GPUTableIdx / HostTableIdx partition table indices for Hybrid.
	GPUTableIdx  []int
	HostTableIdx []int
	// GPUBytes / HostBytes / RemoteBytes are where the embedding
	// parameters physically live.
	GPUBytes, HostBytes, RemoteBytes int64
	// HotFraction is the fraction of lookups served from GPU HBM
	// (1.0 for GPUMemory, 0 for SystemMemory/RemoteCPU; for Tiered it
	// includes hot-row cache hits).
	HotFraction float64
	// Tiered carries the full per-tier assignment for the Tiered
	// strategy (nil otherwise).
	Tiered *memtier.Assignment
}

// usableGPUBytes returns packable HBM per device.
func usableGPUBytes(p hw.Platform) int64 {
	return int64(float64(p.GPU.MemCapacity) * (1 - gpuReserveFraction))
}

// usableHostBytes returns packable system DRAM.
func usableHostBytes(p hw.Platform) int64 {
	return int64(float64(p.CPU.MemCapacity) * (1 - hostReserveFraction))
}

// usablePSBytes returns packable DRAM of one remote parameter server
// (always a dual-socket CPU node).
func usablePSBytes() int64 {
	return usableHostBytes(hw.DualSocketCPU())
}

// Fit constructs a Plan for the strategy on the platform, or an error if
// the model cannot be placed that way. remotePS requests a parameter
// server count for RemoteCPU; pass 0 to size automatically.
func Fit(cfg core.Config, platform hw.Platform, strategy Strategy, remotePS int) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	total := cfg.EmbeddingBytes()
	plan := Plan{Strategy: strategy, Platform: platform}

	switch strategy {
	case GPUMemory:
		if !platform.IsGPU() {
			return Plan{}, fmt.Errorf("placement: %s has no GPUs", platform.Name)
		}
		per := usableGPUBytes(platform)
		need := int(ceilDiv(total, per))
		if need > platform.NumGPUs {
			return Plan{}, fmt.Errorf(
				"placement: %s embeddings (%s) exceed %d-GPU HBM capacity (%s usable)",
				cfg.Name, core.HumanBytes(total), platform.NumGPUs,
				core.HumanBytes(per*int64(platform.NumGPUs)))
		}
		// Capacity-minimal table-wise packing: tables occupy as few
		// GPUs as fit them. §V-C observes that growing hash sizes
		// force more GPUs into the embedding exchange, which is what
		// degrades Fig 12's GPU throughput.
		if need < 1 {
			need = 1
		}
		plan.EmbGPUs = need
		plan.GPUBytes = total
		plan.HotFraction = 1
		return plan, nil

	case SystemMemory:
		if !platform.IsGPU() {
			return Plan{}, fmt.Errorf("placement: SystemMemory placement targets GPU servers; use RemoteCPU for CPU clusters")
		}
		if total > usableHostBytes(platform) {
			return Plan{}, fmt.Errorf(
				"placement: %s embeddings (%s) exceed %s system memory (%s usable)",
				cfg.Name, core.HumanBytes(total), platform.Name,
				core.HumanBytes(usableHostBytes(platform)))
		}
		plan.HostBytes = total
		return plan, nil

	case RemoteCPU:
		need := int(ceilDiv(total, usablePSBytes()))
		if need < 1 {
			need = 1
		}
		if remotePS == 0 {
			// §VI-A: the paper scales the PS fleet up beyond the bare
			// capacity minimum to spread lookup load.
			remotePS = need
			if remotePS < 8 {
				remotePS = 8
			}
		}
		if remotePS < need {
			return Plan{}, fmt.Errorf(
				"placement: %s needs >= %d remote parameter servers for %s, got %d",
				cfg.Name, need, core.HumanBytes(total), remotePS)
		}
		plan.RemotePS = remotePS
		plan.RemoteBytes = total
		return plan, nil

	case Hybrid:
		if !platform.IsGPU() {
			return Plan{}, fmt.Errorf("placement: %s has no GPUs", platform.Name)
		}
		gpuBudget := usableGPUBytes(platform) * int64(platform.NumGPUs)
		stats := cfg.TableStats()
		// Hottest-first: pack by lookup density (accesses per byte) so
		// GPU HBM serves the largest share of lookups.
		order := make([]int, len(stats))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			da := stats[order[a]].MeanPooled / float64(stats[order[a]].Bytes)
			db := stats[order[b]].MeanPooled / float64(stats[order[b]].Bytes)
			return da > db
		})
		var gpuBytes int64
		var gpuLookups, totalLookups float64
		for _, s := range stats {
			totalLookups += s.MeanPooled
		}
		for _, oi := range order {
			s := stats[oi]
			if gpuBytes+s.Bytes <= gpuBudget {
				gpuBytes += s.Bytes
				gpuLookups += s.MeanPooled
				plan.GPUTableIdx = append(plan.GPUTableIdx, s.Index)
			} else {
				plan.HostTableIdx = append(plan.HostTableIdx, s.Index)
			}
		}
		hostBytes := total - gpuBytes
		if hostBytes > usableHostBytes(platform) {
			return Plan{}, fmt.Errorf(
				"placement: %s hybrid spill (%s) exceeds %s system memory",
				cfg.Name, core.HumanBytes(hostBytes), platform.Name)
		}
		sort.Ints(plan.GPUTableIdx)
		sort.Ints(plan.HostTableIdx)
		plan.GPUBytes = gpuBytes
		plan.HostBytes = hostBytes
		if gpuBytes > 0 {
			plan.EmbGPUs = int(ceilDiv(gpuBytes, usableGPUBytes(platform)))
		}
		if totalLookups > 0 {
			plan.HotFraction = gpuLookups / totalLookups
		}
		return plan, nil

	case Tiered:
		return FitTiered(cfg, platform, TieredOptions{RemotePS: remotePS})
	}
	return Plan{}, fmt.Errorf("placement: unknown strategy %v", strategy)
}

// TieredOptions tune the Tiered strategy beyond what Fit's signature
// carries: an access profile recorded by the trace package and the
// memtier planner knobs.
type TieredOptions struct {
	// RemotePS sizes the remote-DRAM tier in parameter-server nodes;
	// 0 selects hw.DefaultRemotePS.
	RemotePS int
	// Assign is forwarded to memtier.Assign (trace profile, Zipf skew,
	// cache fraction, eviction policy).
	Assign memtier.AssignOptions
}

// FitTiered constructs the Tiered plan: tables staged across the
// platform's memory hierarchy hottest-first with a hot-row HBM cache for
// spilled tables. Unlike the flat strategies it consults per-row access
// skew (traced, or power-law-fitted) so the plan records how many lookups
// each tier actually serves.
func FitTiered(cfg core.Config, platform hw.Platform, opts TieredOptions) (Plan, error) {
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	if !platform.IsGPU() {
		return Plan{}, fmt.Errorf("placement: %s has no GPUs for the tiered hierarchy's top tier", platform.Name)
	}
	tiers := platform.MemoryTiers(opts.RemotePS)
	asg, err := memtier.Assign(cfg.TableStats(), tiers, opts.Assign)
	if err != nil {
		return Plan{}, fmt.Errorf("placement: %s on %s: %w", cfg.Name, platform.Name, err)
	}
	plan := Plan{Strategy: Tiered, Platform: platform, Tiered: &asg}
	for _, tl := range asg.Tiers {
		switch tl.Tier.Kind {
		case hw.TierHBM:
			plan.GPUBytes = tl.Bytes + asg.CacheBytes
			plan.GPUTableIdx = append([]int(nil), tl.Tables...)
		case hw.TierLocalDRAM:
			plan.HostBytes = tl.Bytes
			plan.HostTableIdx = append([]int(nil), tl.Tables...)
		case hw.TierRemoteDRAM:
			plan.RemoteBytes = tl.Bytes
			if tl.Bytes > 0 {
				ps := opts.RemotePS
				if min := int(ceilDiv(tl.Bytes, usablePSBytes())); ps < min {
					ps = min
				}
				if ps < hw.DefaultRemotePS {
					ps = hw.DefaultRemotePS
				}
				plan.RemotePS = ps
			}
		}
	}
	if plan.GPUBytes > 0 {
		plan.EmbGPUs = int(ceilDiv(plan.GPUBytes, usableGPUBytes(platform)))
		if plan.EmbGPUs > platform.NumGPUs {
			plan.EmbGPUs = platform.NumGPUs
		}
	}
	plan.HotFraction = asg.TopTierFraction()
	return plan, nil
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic("placement: non-positive divisor")
	}
	return (a + b - 1) / b
}
