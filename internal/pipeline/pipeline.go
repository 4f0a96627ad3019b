// Package pipeline builds the paper's distributed CPU training pipeline
// (Fig 4) as a discrete-event simulation: reader servers feed trainers,
// trainers run Hogwild-style overlapped iteration flows, sparse lookups
// and gradient pushes fan out to sharded sparse parameter servers, and
// dense parameters elastically synchronize with a dense parameter server.
//
// Unlike the analytic perfmodel (steady-state bottleneck arithmetic),
// the simulation exposes queueing, transients, and run-to-run
// variability, which is what the utilization distributions of Fig 5 are
// about.
package pipeline

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/sim"
	"repro/internal/xrand"
)

// Config describes one simulated training run.
type Config struct {
	Model core.Config
	// Batch is the per-trainer mini-batch.
	Batch    int
	Trainers int
	SparsePS int
	DensePS  int
	Readers  int
	// HogwildFlows is the number of concurrently outstanding
	// iteration pipelines per trainer (asynchronous overlap).
	HogwildFlows int
	// Iterations per trainer before the run ends.
	Iterations int
	Seed       int64
	Cal        perfmodel.Calibration
}

const (
	// jitter is the log-normal sigma applied to every service time —
	// the "system level variability" the paper cites for Fig 5.
	jitter = 0.15
	// machineSpread is the log-normal sigma of per-server static speed
	// factors (slow hosts, co-location, thermal differences).
	machineSpread = 0.08
)

// Defaults fills unset fields.
func (c *Config) Defaults() {
	if c.Batch == 0 {
		c.Batch = 200
	}
	if c.Trainers == 0 {
		c.Trainers = 4
	}
	if c.SparsePS == 0 {
		c.SparsePS = 2
	}
	if c.DensePS == 0 {
		c.DensePS = 1
	}
	if c.Readers == 0 {
		// §IV-B2: "We typically scale up reader servers such that data
		// reading is not a bottleneck."
		c.Readers = 3 * c.Trainers
	}
	if c.HogwildFlows == 0 {
		c.HogwildFlows = 2
	}
	if c.Iterations == 0 {
		c.Iterations = 200
	}
	if c.Cal == (perfmodel.Calibration{}) {
		c.Cal = perfmodel.DefaultCalibration()
	}
}

// ServerUtil carries the three Fig 5 utilization axes for one server.
type ServerUtil struct {
	CPU   float64
	MemBW float64
	Net   float64
}

// Result aggregates one simulated run.
type Result struct {
	SimTime    float64
	Examples   int64
	Throughput float64
	Trainers   []ServerUtil
	SparsePS   []ServerUtil
	Readers    []float64 // reader busy fractions
}

// trainerNode groups one trainer's resources.
type trainerNode struct {
	cpu *sim.Resource
	mem *sim.Resource
	net *sim.Resource
	// static speed factor
	speed float64
	done  int
}

type psNode struct {
	cpu   *sim.Resource
	mem   *sim.Resource
	net   *sim.Resource
	speed float64
}

// Run executes the simulation and returns utilization/throughput results.
func Run(cfg Config) (Result, error) {
	cfg.Defaults()
	if err := cfg.Model.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Trainers <= 0 || cfg.SparsePS <= 0 {
		return Result{}, fmt.Errorf("pipeline: need at least one trainer and sparse PS")
	}

	eng := sim.NewEngine()
	rng := xrand.New(cfg.Seed)
	node := hw.DualSocketCPU()
	cal := cfg.Cal

	speed := func() float64 { return math.Exp(rng.NormMS(0, machineSpread)) }
	jit := func(g *xrand.RNG) float64 { return math.Exp(g.NormMS(0, jitter)) }

	trainers := make([]*trainerNode, cfg.Trainers)
	for i := range trainers {
		trainers[i] = &trainerNode{
			cpu:   sim.NewResource(eng, fmt.Sprintf("trainer%d.cpu", i), 1),
			mem:   sim.NewResource(eng, fmt.Sprintf("trainer%d.mem", i), 1),
			net:   sim.NewResource(eng, fmt.Sprintf("trainer%d.net", i), 1),
			speed: speed(),
		}
	}
	pss := make([]*psNode, cfg.SparsePS)
	for i := range pss {
		pss[i] = &psNode{
			cpu:   sim.NewResource(eng, fmt.Sprintf("ps%d.cpu", i), 1),
			mem:   sim.NewResource(eng, fmt.Sprintf("ps%d.mem", i), 1),
			net:   sim.NewResource(eng, fmt.Sprintf("ps%d.net", i), 1),
			speed: speed(),
		}
	}
	densePS := sim.NewResource(eng, "dense.net", cfg.DensePS)
	readers := make([]*sim.Resource, cfg.Readers)
	for i := range readers {
		readers[i] = sim.NewResource(eng, fmt.Sprintf("reader%d", i), 1)
	}

	// Per-iteration service-time building blocks (seconds), shared with
	// the analytic model's cost arithmetic.
	b := float64(cfg.Batch)
	m := cfg.Model
	flops := 3 * b * float64(m.MLPFLOPsPerExample()+m.InteractionFLOPsPerExample())
	computeSec := flops / (node.CPU.PeakFLOPs() * cal.CPUGemmEff * cal.HogwildEff)
	// Trainer memory traffic: parameters + activations, three passes.
	actBytes := 0.0
	for _, d := range m.BottomDims() {
		actBytes += b * float64(d) * 4
	}
	for _, d := range m.TopDims() {
		actBytes += b * float64(d) * 4
	}
	memSec := (3*actBytes + float64(m.DenseParamBytes())) / node.CPU.MemBW()
	lookupBytes := b * m.LookupsPerExample() * float64(m.EmbeddingDim) * 4
	netBytes := b*m.LookupsPerExample()*4 + 2*b*float64(m.NumSparse())*float64(m.EmbeddingDim)*4
	nicSec := netBytes / (node.NIC.BandwidthBps * cal.NetEff)
	// Serializing the sparse exchange costs trainer CPU cycles too.
	serializeSec := netBytes / (float64(node.CPU.Sockets) * cal.HostCopyBWPerSocket)
	// Each sparse PS shard handles its slice of the exchange.
	psShare := 1.0 / float64(cfg.SparsePS)
	psCPUSec := netBytes * psShare / cal.PSHandleBWPerNode
	psMemSec := cal.EmbedFwdBwdFactor * lookupBytes * psShare / (node.CPU.MemBW() * cal.PSDRAMEff)
	psNetSec := netBytes * psShare / (node.NIC.BandwidthBps * cal.NetEff)
	denseSec := 2 * float64(m.DenseParamBytes()) / (node.NIC.BandwidthBps * cal.NetEff)
	readSec := (b*float64(m.DenseFeatures)*4 + b*m.LookupsPerExample()*4) / 400e6 // decode ~400MB/s per reader

	var examples int64

	// Each flow is a chain of callbacks: read -> compute(+mem) ->
	// sparse exchange -> maybe dense sync -> repeat. The two mutually
	// recursive steps are declared up front.
	var launch, finishIteration func(tn *trainerNode, ti int, g *xrand.RNG)

	launch = func(tn *trainerNode, ti int, g *xrand.RNG) {
		if tn.done >= cfg.Iterations {
			return
		}
		tn.done++
		iter := tn.done
		reader := readers[(ti+iter)%len(readers)]
		reader.Acquire(readSec*jit(g), func() {
			// Memory then compute occupy the trainer's sockets.
			j := jit(g)
			tn.mem.Acquire(memSec*j/tn.speed, func() {
				tn.cpu.Acquire((computeSec+serializeSec)*j/tn.speed, func() {
					// Sparse exchange: NIC, then every PS shard in
					// parallel; the iteration completes when the
					// slowest shard responds.
					tn.net.Acquire(nicSec*jit(g), func() {
						pending := len(pss)
						for _, ps := range pss {
							ps := ps
							jp := jit(g)
							ps.net.Acquire(psNetSec*jp, func() {
								ps.mem.Acquire(psMemSec*jp/ps.speed, func() {
									ps.cpu.Acquire(psCPUSec*jp/ps.speed, func() {
										pending--
										if pending == 0 {
											finishIteration(tn, ti, g)
										}
									})
								})
							})
						}
					})
				})
			})
		})
	}

	finishIteration = func(tn *trainerNode, ti int, g *xrand.RNG) {
		examples += int64(cfg.Batch)
		if tn.done%int(cal.EASGDPeriodIters) == 0 {
			tn.net.Acquire(denseSec*jit(g), func() {
				densePS.Acquire(denseSec*jit(g), func() {
					launch(tn, ti, g)
				})
			})
			return
		}
		launch(tn, ti, g)
	}

	for ti, tn := range trainers {
		for f := 0; f < cfg.HogwildFlows; f++ {
			launch(tn, ti, rng.Split())
		}
	}
	eng.Run(math.Inf(1))

	res := Result{SimTime: eng.Now(), Examples: examples}
	if eng.Now() > 0 {
		res.Throughput = float64(examples) / eng.Now()
	}
	for _, tn := range trainers {
		res.Trainers = append(res.Trainers, ServerUtil{
			CPU:   tn.cpu.Utilization(),
			MemBW: tn.mem.Utilization(),
			Net:   tn.net.Utilization(),
		})
	}
	for _, ps := range pss {
		res.SparsePS = append(res.SparsePS, ServerUtil{
			CPU:   ps.cpu.Utilization(),
			MemBW: ps.mem.Utilization(),
			Net:   ps.net.Utilization(),
		})
	}
	for _, r := range readers {
		res.Readers = append(res.Readers, r.Utilization())
	}
	return res, nil
}
