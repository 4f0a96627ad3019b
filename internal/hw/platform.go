// Package hw catalogs the training hardware platforms of the paper's
// Table I — the dual-socket CPU server, the Big Basin 8-GPU server, and
// the prototype Zion 8-socket GPU server — with the compute, memory,
// interconnect, and power characteristics the performance model consumes.
//
// Raw peak numbers come from Table I and the public platform disclosures
// cited there (V100: 15.7 TF/s FP32 and 900 GB/s HBM2; NICs of 25/100
// Gbps; Zion with ~2 TB of system memory at ~1 TB/s). Achievable-fraction
// calibration lives in perfmodel, not here: this package states what the
// hardware is, not how efficiently software drives it.
package hw

import "fmt"

// Interconnect describes one communication channel.
type Interconnect struct {
	Name string
	// BandwidthBps is bytes/second per direction for one endpoint.
	BandwidthBps float64
	// LatencySec is the per-message base latency in seconds.
	LatencySec float64
}

// CPUSpec describes the host CPU complex of a platform.
type CPUSpec struct {
	Sockets        int
	CoresPerSocket int
	// PeakFLOPsPerSocket is FP32 FLOP/s per socket (FMA counted as 2).
	PeakFLOPsPerSocket float64
	// MemBWPerSocket is DRAM stream bandwidth per socket, bytes/s.
	MemBWPerSocket float64
	// MemCapacity is total system DRAM in bytes.
	MemCapacity int64
}

// PeakFLOPs returns aggregate FP32 FLOP/s.
func (c CPUSpec) PeakFLOPs() float64 { return float64(c.Sockets) * c.PeakFLOPsPerSocket }

// MemBW returns aggregate DRAM bandwidth, bytes/s.
func (c CPUSpec) MemBW() float64 { return float64(c.Sockets) * c.MemBWPerSocket }

// GPUSpec describes one accelerator.
type GPUSpec struct {
	Name string
	// PeakFLOPs is FP32 FLOP/s per device.
	PeakFLOPs float64
	// MemBW is HBM bandwidth per device, bytes/s.
	MemBW float64
	// MemCapacity is device memory in bytes.
	MemCapacity int64
}

// Platform is one server design from Table I.
type Platform struct {
	Name string
	CPU  CPUSpec
	// NumGPUs is 0 for CPU-only platforms.
	NumGPUs int
	GPU     GPUSpec
	// NVLink is the direct GPU-GPU fabric; nil when GPUs can only
	// communicate through the host (the Zion prototype, §VI-B).
	NVLink *Interconnect
	// PCIe is the host-device channel per GPU.
	PCIe Interconnect
	// NIC is the network channel of the server.
	NIC Interconnect
	// NVM optionally overrides the platform's non-volatile storage tier
	// (see MemoryTiers); nil selects the default NVMe spec.
	NVM *MemTier
	// PowerUnits is provisioned power relative to the dual-socket CPU
	// server (= 1.0). The paper states Big Basin requires 7.3× (§V-A).
	PowerUnits float64
}

// TotalGPUMemory returns the aggregate accelerator memory in bytes.
func (p Platform) TotalGPUMemory() int64 {
	return int64(p.NumGPUs) * p.GPU.MemCapacity
}

// HasNVLink reports whether GPUs have a direct fabric.
func (p Platform) HasNVLink() bool { return p.NVLink != nil }

// IsGPU reports whether the platform carries accelerators.
func (p Platform) IsGPU() bool { return p.NumGPUs > 0 }

// RankInterconnect returns the channel connecting peer training ranks on
// this platform: the direct GPU fabric when one exists, otherwise the
// NIC (the scale-out case where each rank is a server — also the Zion
// prototype, whose accelerators can only talk through the host).
func (p Platform) RankInterconnect() Interconnect {
	if p.HasNVLink() {
		return *p.NVLink
	}
	return p.NIC
}

// String renders a Table I style row.
func (p Platform) String() string {
	acc := "-"
	if p.IsGPU() {
		acc = fmt.Sprintf("%d x %s", p.NumGPUs, p.GPU.Name)
	}
	return fmt.Sprintf("%s: accelerators=%s systemMem=%dGB cpuSockets=%d nic=%s power=%.1fx",
		p.Name, acc, p.CPU.MemCapacity>>30, p.CPU.Sockets, p.NIC.Name, p.PowerUnits)
}

const (
	gb = int64(1) << 30
	tb = int64(1) << 40
)

// v100 is the NVIDIA Tesla V100 of Big Basin and the Zion prototype.
func v100() GPUSpec {
	return GPUSpec{
		Name:        "V100",
		PeakFLOPs:   15.7e12, // Table I / §IV-A
		MemBW:       900e9,   // HBM2
		MemCapacity: 32 * gb,
	}
}

// skylakeSocket returns one production dual-socket-class Skylake socket:
// 20 cores, AVX-512 FMA ≈ 2.4 TF/s FP32 peak, six DDR4 channels
// ≈ 128 GB/s stream.
func skylakeSocket() (flops, membw float64, cores int) {
	return 2.4e12, 128e9, 20
}

// DualSocketCPU returns the baseline production CPU trainer/parameter
// server (Table I, column 1).
func DualSocketCPU() Platform {
	f, bw, cores := skylakeSocket()
	return Platform{
		Name: "DualSocketCPU",
		CPU: CPUSpec{
			Sockets:            2,
			CoresPerSocket:     cores,
			PeakFLOPsPerSocket: f,
			MemBWPerSocket:     bw,
			MemCapacity:        256 * gb,
		},
		PCIe:       Interconnect{Name: "PCIe3x16", BandwidthBps: 16e9, LatencySec: 10e-6},
		NIC:        Interconnect{Name: "25GbE", BandwidthBps: 25e9 / 8, LatencySec: 30e-6},
		PowerUnits: 1.0,
	}
}

// BigBasin returns the 8×V100 training server (Table I, column 2): two
// host sockets, 256 GB system DRAM, NVLink hybrid cube mesh, 100 GbE.
func BigBasin() Platform {
	f, bw, cores := skylakeSocket()
	nvlink := Interconnect{
		// Six 25 GB/s links per V100 in the hybrid cube mesh give
		// each GPU ~150 GB/s of aggregate fabric bandwidth.
		Name:         "NVLink-cube-mesh",
		BandwidthBps: 150e9,
		LatencySec:   5e-6,
	}
	return Platform{
		Name: "BigBasin",
		CPU: CPUSpec{
			Sockets:            2,
			CoresPerSocket:     cores,
			PeakFLOPsPerSocket: f,
			MemBWPerSocket:     bw,
			MemCapacity:        256 * gb,
		},
		NumGPUs:    8,
		GPU:        v100(),
		NVLink:     &nvlink,
		PCIe:       Interconnect{Name: "PCIe3x16", BandwidthBps: 16e9, LatencySec: 10e-6},
		NIC:        Interconnect{Name: "100GbE", BandwidthBps: 100e9 / 8, LatencySec: 20e-6},
		PowerUnits: 7.3, // §V-A: Big Basin power capacity is 7.3× the CPU server
	}
}

// Zion returns the prototype 8-socket large-memory GPU platform (Table I,
// column 3): ~2 TB system memory at ~1 TB/s, 8 accelerators WITHOUT a
// direct GPU-GPU fabric (all cross-GPU traffic goes through the host,
// §VI-B), and 4× InfiniBand 100 Gbps.
func Zion() Platform {
	f, bw, cores := skylakeSocket()
	return Platform{
		Name: "Zion",
		CPU: CPUSpec{
			Sockets:            8,
			CoresPerSocket:     cores,
			PeakFLOPsPerSocket: f,
			MemBWPerSocket:     bw, // 8 × 128 GB/s ≈ 1 TB/s aggregate
			MemCapacity:        2 * tb,
		},
		NumGPUs: 8,
		GPU:     v100(),
		NVLink:  nil, // prototype: no GPU-GPU direct communication
		PCIe:    Interconnect{Name: "PCIe3x16", BandwidthBps: 16e9, LatencySec: 10e-6},
		NIC:     Interconnect{Name: "4xIB100", BandwidthBps: 4 * 100e9 / 8, LatencySec: 5e-6},
		// Not disclosed; modeled as the Big Basin GPU complex plus
		// four dual-socket hosts' worth of CPU/DRAM power.
		PowerUnits: 10.3,
	}
}

// Platforms returns the Table I catalog in paper order.
func Platforms() []Platform {
	return []Platform{DualSocketCPU(), BigBasin(), Zion()}
}

// ByName looks a platform up by its name.
func ByName(name string) (Platform, error) {
	for _, p := range Platforms() {
		if p.Name == name {
			return p, nil
		}
	}
	return Platform{}, fmt.Errorf("hw: unknown platform %q", name)
}
