package hw

import (
	"strings"
	"testing"
)

func TestTableIInvariants(t *testing.T) {
	cpu := DualSocketCPU()
	bb := BigBasin()
	zion := Zion()

	// Table I: CPU platform has no accelerators.
	if cpu.IsGPU() || cpu.NumGPUs != 0 {
		t.Error("CPU platform must have no GPUs")
	}
	// Both GPU platforms carry 8 V100s.
	for _, p := range []Platform{bb, zion} {
		if p.NumGPUs != 8 || p.GPU.Name != "V100" {
			t.Errorf("%s: accelerators %d x %s", p.Name, p.NumGPUs, p.GPU.Name)
		}
	}
	// System memory: 256 GB / 256 GB / ~2 TB.
	if cpu.CPU.MemCapacity != 256<<30 || bb.CPU.MemCapacity != 256<<30 {
		t.Error("CPU/BigBasin system memory must be 256 GB")
	}
	if zion.CPU.MemCapacity != 2<<40 {
		t.Error("Zion system memory must be 2 TB")
	}
	// CPU sockets: 2 / 2 / 8.
	if cpu.CPU.Sockets != 2 || bb.CPU.Sockets != 2 || zion.CPU.Sockets != 8 {
		t.Error("socket counts must match Table I")
	}
	// Zion aggregate memory bandwidth ~1 TB/s.
	if zbw := zion.CPU.MemBW(); zbw < 0.9e12 || zbw > 1.2e12 {
		t.Errorf("Zion memory bandwidth %v, want ~1 TB/s", zbw)
	}
	// Interconnects: 25 GbE / 100 GbE / 4x IB 100.
	if cpu.NIC.BandwidthBps*8 != 25e9 {
		t.Error("CPU NIC must be 25 Gbps")
	}
	if bb.NIC.BandwidthBps*8 != 100e9 {
		t.Error("BigBasin NIC must be 100 Gbps")
	}
	if zion.NIC.BandwidthBps*8 != 400e9 {
		t.Error("Zion NIC must be 4x100 Gbps")
	}
}

func TestV100Specs(t *testing.T) {
	bb := BigBasin()
	if bb.GPU.PeakFLOPs != 15.7e12 {
		t.Errorf("V100 FP32 peak = %v, want 15.7 TF/s", bb.GPU.PeakFLOPs)
	}
	if bb.GPU.MemBW != 900e9 {
		t.Errorf("V100 HBM2 BW = %v, want 900 GB/s", bb.GPU.MemBW)
	}
	if got := bb.TotalGPUMemory(); got != 8*32<<30 {
		t.Errorf("BigBasin total GPU memory = %d", got)
	}
}

func TestNVLinkTopology(t *testing.T) {
	// The paper's Zion prototype has no GPU-GPU direct fabric (§VI-B);
	// Big Basin has the NVLink cube mesh.
	if !BigBasin().HasNVLink() {
		t.Error("BigBasin must have NVLink")
	}
	if Zion().HasNVLink() {
		t.Error("prototype Zion must not have direct GPU-GPU communication")
	}
	if DualSocketCPU().HasNVLink() {
		t.Error("CPU server has no NVLink")
	}
}

func TestPowerUnits(t *testing.T) {
	if DualSocketCPU().PowerUnits != 1.0 {
		t.Error("CPU server is the 1.0 power baseline")
	}
	if BigBasin().PowerUnits != 7.3 {
		t.Error("§V-A: Big Basin is 7.3× the CPU server")
	}
	if z := Zion().PowerUnits; z <= BigBasin().PowerUnits {
		t.Errorf("Zion power %v should exceed Big Basin", z)
	}
}

func TestCPUAggregates(t *testing.T) {
	c := DualSocketCPU().CPU
	if cores := c.Sockets * c.CoresPerSocket; cores != 40 {
		t.Errorf("cores = %d", cores)
	}
	if c.PeakFLOPs() != 2*c.PeakFLOPsPerSocket {
		t.Error("PeakFLOPs aggregation")
	}
	if c.MemBW() != 2*c.MemBWPerSocket {
		t.Error("MemBW aggregation")
	}
	// Zion CPU compute should be 4x the dual-socket server.
	if Zion().CPU.PeakFLOPs() != 4*c.PeakFLOPs() {
		t.Error("Zion CPU compute must be 4x dual-socket")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"DualSocketCPU", "BigBasin", "Zion"} {
		p, err := ByName(name)
		if err != nil || p.Name != name {
			t.Errorf("ByName(%s): %v", name, err)
		}
	}
	if _, err := ByName("TPUv4"); err == nil {
		t.Error("unknown platform must error")
	}
}

func TestString(t *testing.T) {
	s := BigBasin().String()
	if !strings.Contains(s, "8 x V100") || !strings.Contains(s, "7.3x") {
		t.Errorf("String() = %q", s)
	}
	if !strings.Contains(DualSocketCPU().String(), "accelerators=-") {
		t.Error("CPU String should show no accelerators")
	}
}

func TestPlatformsOrder(t *testing.T) {
	ps := Platforms()
	if len(ps) != 3 || ps[0].Name != "DualSocketCPU" || ps[2].Name != "Zion" {
		t.Errorf("Platforms() = %v", ps)
	}
}
