package perfmodel

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/placement"
)

// Scenario describes one training setup to estimate.
type Scenario struct {
	Cfg      core.Config
	Platform hw.Platform
	// Batch is the global batch per iteration on a GPU server, or the
	// per-trainer mini-batch on the CPU cluster.
	Batch int
	// Plan is the embedding placement (ignored for CPU clusters,
	// where tables always live on sparse parameter servers).
	Plan placement.Plan
	// CPU-cluster topology (production baseline, Fig 4). Ignored for
	// GPU platforms except RemotePS accounting via Plan.
	NumTrainers int
	NumSparsePS int
	NumDensePS  int
	Cal         Calibration
}

// Breakdown is the per-iteration time decomposition and the derived
// throughput/power figures.
type Breakdown struct {
	// Seconds per iteration by component.
	Compute   float64 // MLP + interaction FLOP time
	EmbLookup float64 // embedding gather/scatter memory time
	Comm      float64 // intra-node pooled-embedding exchange
	AllReduce float64 // dense-gradient synchronization
	Net       float64 // network transfers (remote PS / EASGD)
	Host      float64 // host CPU staging/copy work
	Launch    float64 // kernel-launch + fixed framework overhead
	IterTime  float64
	// Throughput is examples/second for the whole setup.
	Throughput float64
	// PowerUnits is the setup's provisioned power in CPU-server units.
	PowerUnits float64
	// Bottleneck names the largest component.
	Bottleneck string
}

// PowerEfficiency returns throughput per power unit.
func (b Breakdown) PowerEfficiency() float64 {
	if b.PowerUnits == 0 {
		return 0
	}
	return b.Throughput / b.PowerUnits
}

// Estimate computes the breakdown for a scenario.
func Estimate(s Scenario) (Breakdown, error) {
	if err := s.Cfg.Validate(); err != nil {
		return Breakdown{}, err
	}
	if s.Batch <= 0 {
		return Breakdown{}, fmt.Errorf("perfmodel: batch must be positive")
	}
	if s.Cal == (Calibration{}) {
		s.Cal = DefaultCalibration()
	}
	if s.Platform.IsGPU() {
		return estimateGPU(s)
	}
	return estimateCPUCluster(s)
}

// ---- shared building blocks ----

func gemmTime(flops, peak, eff float64) float64 {
	if peak <= 0 || eff <= 0 {
		return math.Inf(1)
	}
	return flops / (peak * eff)
}

func streamTime(bytes, bw, eff float64) float64 {
	if bw <= 0 || eff <= 0 {
		return math.Inf(1)
	}
	return bytes / (bw * eff)
}

// batchEff ramps GEMM efficiency with per-device batch size.
func batchEff(perDevBatch, half float64) float64 {
	if perDevBatch <= 0 {
		return 0
	}
	return perDevBatch / (perDevBatch + half)
}

// psServiceTime is the time one parameter-server fleet of ps nodes needs
// to serve a single trainer iteration: the DRAM random gather/scatter of
// embBytes, the RPC handling of netBytes wire traffic, and the NIC, all
// in parallel across the fleet, gated by the slowest.
func psServiceTime(embBytes, netBytes, ps float64, psNode hw.Platform, cal Calibration) float64 {
	if ps < 1 {
		ps = 1
	}
	dram := embBytes / (ps * psNode.CPU.MemBW() * cal.PSDRAMEff)
	rpc := netBytes / (ps * cal.PSHandleBWPerNode)
	nic := netBytes / (ps * psNode.NIC.BandwidthBps * cal.NetEff)
	return math.Max(dram, math.Max(rpc, nic))
}

// gpuRandEff derates GPU random-access efficiency as the per-GPU
// embedding footprint outgrows on-chip caches (§V-C: GPU throughput drops
// sharply with hash size while CPU throughput is flat).
func gpuRandEff(cal Calibration, perGPUBytes float64) float64 {
	eff := cal.GPURandEff
	if cal.CacheSlope > 0 && perGPUBytes > cal.CacheRefBytes {
		eff /= 1 + cal.CacheSlope*math.Log10(perGPUBytes/cal.CacheRefBytes)
	}
	return eff
}

// trafficPerIter aggregates the per-iteration byte quantities of a config
// at batch b.
type traffic struct {
	lookupBytes float64 // raw embedding rows touched (fwd only)
	pooledBytes float64 // pooled embedding activations
	indexBytes  float64 // lookup indices
	denseBytes  float64 // dense (MLP) parameter bytes
	denseInput  float64 // dense feature input bytes
	flops       float64 // fwd+bwd MLP+interaction FLOPs
	kernels     float64 // kernel launches per iteration
}

func computeTraffic(cfg core.Config, b int) traffic {
	B := float64(b)
	d := float64(cfg.EmbeddingDim)
	L := cfg.LookupsPerExample()
	var t traffic
	t.lookupBytes = B * L * d * 4
	t.pooledBytes = B * float64(cfg.NumSparse()) * d * 4
	t.indexBytes = B * L * 4
	t.denseBytes = float64(cfg.DenseParamBytes())
	t.denseInput = B * float64(cfg.DenseFeatures) * 4
	t.flops = 3 * B * float64(cfg.MLPFLOPsPerExample()+cfg.InteractionFLOPsPerExample())
	layers := float64(len(cfg.BottomDims()) + len(cfg.TopDims()) - 2)
	t.kernels = 4*layers + 3*float64(cfg.NumSparse()) + 20
	return t
}

// ---- GPU server estimate ----

func estimateGPU(s Scenario) (Breakdown, error) {
	cal := s.Cal
	p := s.Platform
	g := float64(p.NumGPUs)
	tr := computeTraffic(s.Cfg, s.Batch)
	var bd Breakdown

	// MLPs run data-parallel across all GPUs.
	eff := cal.GPUGemmEff * batchEff(float64(s.Batch)/g, cal.BatchEffHalf)
	bd.Compute = gemmTime(tr.flops, g*p.GPU.PeakFLOPs, eff)

	// Batches arrive from remote readers, which the fleet scales so
	// that data loading never stalls training (§IV-B2); the NIC and
	// host staging legs are prefetched off the critical path, leaving
	// only the PCIe H2D copy.
	inputBytes := tr.denseInput + tr.indexBytes
	hostStage := float64(p.CPU.Sockets) * cal.HostStageBWPerSocket
	hostRPC := float64(p.CPU.Sockets) * cal.HostCopyBWPerSocket
	bd.Host += streamTime(inputBytes, g*p.PCIe.BandwidthBps, cal.PCIeEff)

	// Dense-gradient all-reduce (ring) across the replicas.
	arBytes := 2 * tr.denseBytes * (g - 1) / g
	if p.HasNVLink() {
		bd.AllReduce = streamTime(arBytes, p.NVLink.BandwidthBps, cal.NVLinkEff) +
			2*(g-1)*p.NVLink.LatencySec
	} else {
		// Without a GPU fabric the reduction stages through host
		// memory: PCIe both ways plus host staging, with no overlap
		// between the hops (HostBounceFactor).
		pcieAgg := g * p.PCIe.BandwidthBps
		bd.AllReduce = cal.HostBounceFactor * (streamTime(2*tr.denseBytes, pcieAgg, cal.PCIeEff) +
			streamTime(2*tr.denseBytes, hostStage, 1))
	}

	// Embedding path per placement.
	embBytes := cal.EmbedFwdBwdFactor * tr.lookupBytes
	switch s.Plan.Strategy {
	case placement.GPUMemory:
		embGPUs := float64(s.Plan.EmbGPUs)
		if embGPUs < 1 {
			embGPUs = 1
		}
		eff := gpuRandEff(cal, float64(s.Plan.GPUBytes)/embGPUs)
		bd.EmbLookup = streamTime(embBytes, embGPUs*p.GPU.MemBW, eff)
		commBytes := 2 * tr.pooledBytes * (g - 1) / g
		spread := 1 + cal.AllToAllSpread*(embGPUs-1)
		if p.HasNVLink() {
			bd.Comm = streamTime(commBytes, p.NVLink.BandwidthBps*embGPUs, cal.NVLinkEff) * spread
		} else {
			// Zion prototype: pooled exchange through the host.
			pcieAgg := g * p.PCIe.BandwidthBps
			bd.Comm = cal.HostBounceFactor * (streamTime(2*2*tr.pooledBytes, pcieAgg, cal.PCIeEff) +
				streamTime(2*2*tr.pooledBytes, hostStage, 1))
		}
		if embGPUs > 1 {
			// Sharded exchange dispatches chunked gather/scatter
			// kernels per (table, shard) pair each direction.
			chunks := math.Ceil(float64(s.Batch) / 2048)
			bd.Comm += 2 * float64(s.Cfg.NumSparse()) * embGPUs * chunks * cal.KernelLaunchSec
		}

	case placement.SystemMemory:
		// Host CPUs gather/pool and apply sparse updates in DRAM.
		bd.EmbLookup = streamTime(embBytes, p.CPU.MemBW(), cal.CPURandEff)
		// Pooled activations cross PCIe down, gradients back up.
		pcieAgg := math.Min(g*p.PCIe.BandwidthBps, p.CPU.MemBW()/2)
		bd.Comm = streamTime(2*tr.pooledBytes, pcieAgg, cal.PCIeEff)
		bd.Host += streamTime(2*tr.pooledBytes, hostStage, 1)

	case placement.RemoteCPU:
		ps := float64(s.Plan.RemotePS)
		if ps < 1 {
			ps = 1
		}
		psNode := hw.DualSocketCPU()
		netBytes := tr.indexBytes + 2*tr.pooledBytes
		bd.EmbLookup = psServiceTime(embBytes, netBytes, ps, psNode, cal)
		// The prototype issues per-table request/response exchanges
		// that are only partially pipelined; §VI-B identifies this
		// lookup latency as a first-order bottleneck.
		bd.Net += streamTime(netBytes, p.NIC.BandwidthBps, cal.NetEff) +
			float64(s.Cfg.NumSparse())*cal.RemoteRTTSec +
			2*ps*p.NIC.LatencySec
		bd.Host += streamTime(netBytes, hostRPC, 1) +
			streamTime(2*tr.pooledBytes, g*p.PCIe.BandwidthBps, cal.PCIeEff)

	case placement.Tiered:
		// Per-tier composition: each tier serves its assignment's
		// lookup fraction at its own bandwidth/latency; the HBM share
		// (resident hot tables plus hot-row cache hits) behaves like
		// GPUMemory, spilled shares like SystemMemory / RemoteCPU /
		// block storage. When everything fits the top tier this prices
		// identically to GPUMemory.
		asg := s.Plan.Tiered
		if asg == nil {
			return Breakdown{}, fmt.Errorf("perfmodel: tiered plan carries no memtier assignment")
		}
		embGPUs := float64(s.Plan.EmbGPUs)
		if embGPUs < 1 {
			embGPUs = 1
		}
		hot := s.Plan.HotFraction
		var spillPooled float64 // pooled-activation share produced on the host side
		for _, tl := range asg.Tiers {
			frac := tl.LookupFraction
			if frac <= 0 {
				continue
			}
			switch tl.Tier.Kind {
			case hw.TierHBM:
				geff := gpuRandEff(cal, float64(s.Plan.GPUBytes)/embGPUs)
				bd.EmbLookup += streamTime(frac*embBytes, embGPUs*p.GPU.MemBW, geff)
			case hw.TierLocalDRAM:
				bd.EmbLookup += streamTime(frac*embBytes, p.CPU.MemBW(), cal.CPURandEff)
				spillPooled += frac
			case hw.TierRemoteDRAM:
				ps := float64(s.Plan.RemotePS)
				if ps < 1 {
					ps = 1
				}
				netBytes := frac * (tr.indexBytes + 2*tr.pooledBytes)
				bd.EmbLookup += psServiceTime(frac*embBytes, netBytes, ps, hw.DualSocketCPU(), cal)
				bd.Net += streamTime(netBytes, p.NIC.BandwidthBps, cal.NetEff) +
					float64(len(tl.Tables))*cal.RemoteRTTSec + 2*ps*p.NIC.LatencySec
				bd.Host += streamTime(netBytes, hostRPC, 1)
				spillPooled += frac
			case hw.TierNVM:
				bd.EmbLookup += streamTime(frac*embBytes, tl.Tier.BandwidthBps, cal.NVMRandEff) +
					float64(len(tl.Tables))*tl.Tier.LatencySec
				spillPooled += frac
			}
		}
		// Pooled exchange: the HBM-served share runs the sharded
		// all-to-all exactly as GPUMemory; spilled shares pool on the
		// host and cross PCIe like SystemMemory.
		spread := 1 + cal.AllToAllSpread*(embGPUs-1)
		if p.HasNVLink() {
			commHot := 2 * hot * tr.pooledBytes * (g - 1) / g
			bd.Comm = streamTime(commHot, p.NVLink.BandwidthBps*embGPUs, cal.NVLinkEff) * spread
		} else {
			pcieAgg := g * p.PCIe.BandwidthBps
			bd.Comm = cal.HostBounceFactor * (streamTime(2*2*hot*tr.pooledBytes, pcieAgg, cal.PCIeEff) +
				streamTime(2*2*hot*tr.pooledBytes, hostStage, 1))
		}
		if embGPUs > 1 {
			chunks := math.Ceil(float64(s.Batch) / 2048)
			bd.Comm += 2 * float64(s.Cfg.NumSparse()) * embGPUs * chunks * cal.KernelLaunchSec
		}
		if spillPooled > 0 {
			pcieAgg := math.Min(g*p.PCIe.BandwidthBps, p.CPU.MemBW()/2)
			bd.Comm += streamTime(2*spillPooled*tr.pooledBytes, pcieAgg, cal.PCIeEff)
			bd.Host += streamTime(2*spillPooled*tr.pooledBytes, hostStage, 1)
		}
		// Cache fills: misses on spilled tables stream their rows up
		// into the HBM hot-row cache (forward direction only).
		if asg.CacheRows > 0 {
			fill := asg.SpilledShare() * (1 - asg.CacheHitRate) * tr.lookupBytes
			bd.Host += streamTime(fill, g*p.PCIe.BandwidthBps, cal.PCIeEff)
		}

	case placement.Hybrid:
		// Weighted mix: the hot fraction behaves like GPUMemory, the
		// remainder like SystemMemory.
		hot := s.Plan.HotFraction
		embGPUs := float64(s.Plan.EmbGPUs)
		if embGPUs < 1 {
			embGPUs = 1
		}
		geff := gpuRandEff(cal, float64(s.Plan.GPUBytes)/embGPUs)
		bd.EmbLookup = streamTime(hot*embBytes, embGPUs*p.GPU.MemBW, geff) +
			streamTime((1-hot)*embBytes, p.CPU.MemBW(), cal.CPURandEff)
		commHot := 2 * hot * tr.pooledBytes * (g - 1) / g
		spread := 1 + cal.AllToAllSpread*(embGPUs-1)
		if p.HasNVLink() {
			bd.Comm = streamTime(commHot, p.NVLink.BandwidthBps*embGPUs, cal.NVLinkEff) * spread
		} else {
			pcieAgg := g * p.PCIe.BandwidthBps
			bd.Comm = streamTime(2*commHot, pcieAgg, cal.PCIeEff)
		}
		pcieAgg := math.Min(g*p.PCIe.BandwidthBps, p.CPU.MemBW()/2)
		bd.Comm += streamTime(2*(1-hot)*tr.pooledBytes, pcieAgg, cal.PCIeEff)
		bd.Host += streamTime(2*(1-hot)*tr.pooledBytes, hostStage, 1)

	default:
		return Breakdown{}, fmt.Errorf("perfmodel: unsupported placement %v", s.Plan.Strategy)
	}

	bd.Launch = cal.GPUFixedSec + tr.kernels*cal.KernelLaunchSec

	bd.IterTime = bd.Compute + bd.EmbLookup + bd.Comm + bd.AllReduce + bd.Net + bd.Host + bd.Launch
	bd.Throughput = float64(s.Batch) / bd.IterTime
	bd.PowerUnits = p.PowerUnits + float64(s.Plan.RemotePS)*hw.DualSocketCPU().PowerUnits
	bd.Bottleneck = bottleneckName(bd)
	return bd, nil
}

// ---- distributed CPU cluster estimate (production baseline, Fig 4) ----

func estimateCPUCluster(s Scenario) (Breakdown, error) {
	cal := s.Cal
	if s.NumTrainers <= 0 {
		s.NumTrainers = 1
	}
	if s.NumSparsePS <= 0 {
		s.NumSparsePS = 1
	}
	if s.NumDensePS <= 0 {
		s.NumDensePS = 1
	}
	trainer := s.Platform
	psNode := hw.DualSocketCPU()
	tr := computeTraffic(s.Cfg, s.Batch)
	var bd Breakdown

	// Per-trainer compute: Hogwild threads keep the sockets busy;
	// large batches add cache pressure.
	cachePenalty := 1 + float64(s.Batch)/cal.CacheBatch
	bd.Compute = gemmTime(tr.flops, trainer.CPU.PeakFLOPs(),
		cal.CPUGemmEff*cal.HogwildEff)*cachePenalty + cal.CPUFixedSec

	// Sparse path: indices to the sparse PS, pooled embeddings back,
	// gradients out — bounded by the trainer NIC.
	netBytes := tr.indexBytes + 2*tr.pooledBytes
	bd.Net = streamTime(netBytes, trainer.NIC.BandwidthBps, cal.NetEff) +
		2*float64(s.NumSparsePS)*trainer.NIC.LatencySec

	// Sparse PS service: every trainer iteration pushes this much
	// random-access traffic into the PS fleet; in steady state each
	// trainer's iteration absorbs numTrainers shares. A PS node is
	// limited by its DRAM random-access bandwidth, its RPC handling
	// rate, and its NIC, whichever is tightest.
	embBytes := cal.EmbedFwdBwdFactor * tr.lookupBytes
	bd.EmbLookup = float64(s.NumTrainers) *
		psServiceTime(embBytes, netBytes, float64(s.NumSparsePS), psNode, cal)

	// Dense EASGD exchange with the dense PS every EASGDPeriodIters.
	easgdBytes := 2 * tr.denseBytes / cal.EASGDPeriodIters
	bd.AllReduce = streamTime(easgdBytes, trainer.NIC.BandwidthBps, cal.NetEff)
	densePSShare := float64(s.NumTrainers) * easgdBytes /
		(float64(s.NumDensePS) * psNode.NIC.BandwidthBps * cal.NetEff)
	if densePSShare > bd.AllReduce {
		bd.AllReduce = densePSShare
	}

	// Asynchronous pipeline: the slowest stage gates steady-state
	// throughput (Hogwild threads overlap compute with communication).
	bd.IterTime = math.Max(math.Max(bd.Compute, bd.Net),
		math.Max(bd.EmbLookup, bd.AllReduce))
	bd.Throughput = float64(s.NumTrainers) * float64(s.Batch) / bd.IterTime
	bd.PowerUnits = float64(s.NumTrainers)*trainer.PowerUnits +
		float64(s.NumSparsePS+s.NumDensePS)*psNode.PowerUnits
	bd.Bottleneck = bottleneckName(bd)
	return bd, nil
}

func bottleneckName(bd Breakdown) string {
	names := []string{"compute", "embedding", "comm", "allreduce", "net", "host", "launch"}
	vals := []float64{bd.Compute, bd.EmbLookup, bd.Comm, bd.AllReduce, bd.Net, bd.Host, bd.Launch}
	best := 0
	for i, v := range vals {
		if v > vals[best] {
			best = i
		}
	}
	return names[best]
}

// BestPlacement evaluates the paper's three production placement
// strategies (GPU memory, system memory, remote CPU — §IV-B1) plus the
// tiered-memory extension for the config on the platform and returns the
// fastest feasible plan with its breakdown. Tiered is evaluated last and
// ties break toward the flat strategies, so it only wins when staging
// across the hierarchy is strictly faster (e.g. models that overflow
// HBM).
func BestPlacement(cfg core.Config, platform hw.Platform, batch int, cal Calibration) (placement.Plan, Breakdown, error) {
	var plans []placement.Plan
	for _, strat := range []placement.Strategy{placement.GPUMemory, placement.SystemMemory, placement.RemoteCPU, placement.Tiered} {
		if plan, err := placement.Fit(cfg, platform, strat, 0); err == nil {
			plans = append(plans, plan)
		}
	}
	if len(plans) == 0 {
		return placement.Plan{}, Breakdown{}, fmt.Errorf(
			"perfmodel: no feasible placement for %s on %s", cfg.Name, platform.Name)
	}
	var bestPlan placement.Plan
	var bestBD Breakdown
	found := false
	for _, plan := range plans {
		bd, err := Estimate(Scenario{Cfg: cfg, Platform: platform, Batch: batch, Plan: plan, Cal: cal})
		if err != nil {
			continue
		}
		if !found || bd.Throughput > bestBD.Throughput {
			bestPlan, bestBD, found = plan, bd, true
		}
	}
	if !found {
		return placement.Plan{}, Breakdown{}, fmt.Errorf(
			"perfmodel: no placement could be estimated for %s on %s", cfg.Name, platform.Name)
	}
	return bestPlan, bestBD, nil
}

// SaturationBatch sweeps candidate batch sizes and returns the smallest
// batch whose throughput reaches the given fraction of the best observed
// throughput — the "throughput started to saturate after batch size X"
// procedure of §VI-A.
func SaturationBatch(base Scenario, candidates []int, fraction float64) (int, error) {
	if len(candidates) == 0 {
		return 0, fmt.Errorf("perfmodel: no candidate batches")
	}
	if fraction <= 0 || fraction > 1 {
		fraction = 0.9
	}
	type point struct {
		batch int
		thpt  float64
	}
	points := make([]point, 0, len(candidates))
	best := 0.0
	for _, b := range candidates {
		s := base
		s.Batch = b
		// Re-fit the plan in case batch affects nothing; placement is
		// capacity-driven, so reuse.
		bd, err := Estimate(s)
		if err != nil {
			return 0, err
		}
		points = append(points, point{b, bd.Throughput})
		if bd.Throughput > best {
			best = bd.Throughput
		}
	}
	for _, p := range points {
		if p.thpt >= fraction*best {
			return p.batch, nil
		}
	}
	return points[len(points)-1].batch, nil
}
