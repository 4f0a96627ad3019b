// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a named runner returning rendered text
// plus a paper-vs-measured note; cmd/dlrmbench exposes them on the
// command line and bench_test.go as benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/workload"
)

// Options tune experiment execution.
type Options struct {
	// Quick shrinks the real-training and fleet experiments for CI.
	Quick bool
	Seed  int64
}

// Result is one regenerated artifact.
type Result struct {
	ID     string
	Title  string
	Output string
	// PaperNote records the paper-vs-measured comparison.
	PaperNote string
}

// Runner produces a Result.
type Runner func(Options) (Result, error)

var registry = map[string]struct {
	title string
	run   Runner
}{
	"fig1":               {"Fig 1: production model throughput across platforms", fig1},
	"fig2":               {"Fig 2: training frequency and duration by workload", fig2},
	"fig5":               {"Fig 5: utilization distributions, trainers vs parameter servers", fig5},
	"fig6":               {"Fig 6: hash size vs mean feature length per table", fig6},
	"fig7":               {"Fig 7: mean sparse feature length distributions", fig7},
	"fig9":               {"Fig 9: histogram of trainer / parameter server counts", fig9},
	"fig10":              {"Fig 10: sparse x dense sweep on CPU and GPU", fig10},
	"fig11":              {"Fig 11: batch size scaling on CPU and GPU", fig11},
	"fig12":              {"Fig 12: hash size scaling on CPU and GPU", fig12},
	"fig13":              {"Fig 13: throughput under varying MLP dimensions", fig13},
	"fig14":              {"Fig 14: embedding placements on Big Basin vs Zion (M2prod)", fig14},
	"fig15":              {"Fig 15: accuracy loss vs batch size after manual tuning", fig15},
	"elastic_recovery":   {"Elastic recovery: kill/restore/rejoin wall time, bytes restored, loss bit-identity (1/2/4 ranks)", elasticRecovery},
	"flight_recorder":    {"Flight recorder: online anomaly detection localizing injected spike/delay/kill incidents to ±1 step, with black-box bundles (1/2/4 ranks)", flightRecorder},
	"hybrid_scaling":     {"Hybrid-parallel scaling: ranks x batch x table dtype/wire format, comm/compute breakdown, loss drift and wire-byte compression (real collectives)", hybridScaling},
	"ingest_scaling":     {"Ingestion scaling: readers per trainer, reader-bound vs trainer-bound crossover + RecD dedup", ingestScaling},
	"memtier":            {"Tiered memory: cache capacity vs hit rate vs throughput (MTrainS-style)", memtierSweep},
	"straggler_analysis": {"Straggler detection and phase attribution: observed span phases vs perfmodel on clean runs, imbalance index and doctor verdict under an injected per-step delay fault (1/2/4 ranks from disk)", stragglerAnalysis},
	"table1":             {"Table I: hardware platform details", table1},
	"table2":             {"Table II: production model descriptions", table2},
	"table3":             {"Table III: CPU-GPU optimal setup comparison", table3},
	"vic":                {"Sec VI-C: AutoML hyper-parameter re-tuning on GPU", vic},
}

// IDs lists experiment identifiers in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Title returns the display title for an experiment id.
func Title(id string) string { return registry[id].title }

// Run executes one experiment.
func Run(id string, opt Options) (Result, error) {
	e, ok := registry[id]
	if !ok {
		return Result{}, fmt.Errorf("experiments: unknown id %q (known: %s)",
			id, strings.Join(IDs(), ", "))
	}
	res, err := e.run(opt)
	if err != nil {
		return Result{}, fmt.Errorf("experiments: %s: %w", id, err)
	}
	res.ID = id
	res.Title = e.title
	return res, nil
}

// ---- shared helpers ----

func cpuClusterThroughput(cfg core.Config, batch, trainers, sparsePS, densePS int) (perfmodel.Breakdown, error) {
	return perfmodel.Estimate(perfmodel.Scenario{
		Cfg: cfg, Platform: hw.DualSocketCPU(), Batch: batch,
		NumTrainers: trainers, NumSparsePS: sparsePS, NumDensePS: densePS,
	})
}

func gpuThroughput(cfg core.Config, platform hw.Platform, batch int, strat placement.Strategy, remotePS int) (perfmodel.Breakdown, error) {
	plan, err := placement.Fit(cfg, platform, strat, remotePS)
	if err != nil {
		return perfmodel.Breakdown{}, err
	}
	return perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: platform, Batch: batch, Plan: plan})
}

// ---- Fig 1 ----

func fig1(Options) (Result, error) {
	rows := [][]string{{"model", "platform", "placement", "norm throughput", "bottleneck"}}
	var notes []string
	for _, cfg := range workload.ProdModels() {
		setup, err := workload.ProdSetup(cfg.Name)
		if err != nil {
			return Result{}, err
		}
		cpu, err := cpuClusterThroughput(cfg, setup.TrainerBatch, setup.Trainers, setup.SparsePS, setup.DensePS)
		if err != nil {
			return Result{}, err
		}
		rows = append(rows, []string{cfg.Name, "DualSocketCPU",
			fmt.Sprintf("sparse PS x%d", setup.SparsePS), "1.00", cpu.Bottleneck})
		for _, platform := range []hw.Platform{hw.BigBasin(), hw.Zion()} {
			plan, bd, err := perfmodel.BestPlacement(cfg, platform, setup.OptimalGPUBatch, perfmodel.DefaultCalibration())
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, []string{cfg.Name, platform.Name, plan.Strategy.String(),
				metrics.F2(bd.Throughput / cpu.Throughput), bd.Bottleneck})
		}
	}
	notes = append(notes,
		"Paper: throughput rises CPU -> Big Basin -> Zion; M1/M2 place embeddings",
		"on GPU memory on Big Basin, M3 on remote CPU (does not fit), Zion keeps",
		"embeddings in its 2TB system memory. Shape reproduced; see rows above.",
		"(BestPlacement now also considers the Tiered extension, which wins for",
		"models that overflow HBM — the paper's M3 row used remote CPU only.)")
	return Result{Output: metrics.Table(rows), PaperNote: strings.Join(notes, "\n")}, nil
}

// ---- Fig 10 ----

func fig10(Options) (Result, error) {
	T := perfmodel.PaperTargets
	denseLabels := make([]string, len(workload.SweepDense))
	sparseLabels := make([]string, len(workload.SweepSparse))
	for i, d := range workload.SweepDense {
		denseLabels[i] = fmt.Sprintf("%d", d)
	}
	for j, s := range workload.SweepSparse {
		sparseLabels[j] = fmt.Sprintf("%d", s)
	}

	cpuT := make([][]float64, len(workload.SweepDense))
	gpuT := make([][]float64, len(workload.SweepDense))
	ratio := make([][]float64, len(workload.SweepDense))
	powerEff := make([][]float64, len(workload.SweepDense))
	var cpuMin, gpuMin float64
	for i, d := range workload.SweepDense {
		cpuT[i] = make([]float64, len(workload.SweepSparse))
		gpuT[i] = make([]float64, len(workload.SweepSparse))
		ratio[i] = make([]float64, len(workload.SweepSparse))
		powerEff[i] = make([]float64, len(workload.SweepSparse))
		for j, s := range workload.SweepSparse {
			cfg := workload.DefaultTestSuite(d, s)
			c, err := cpuClusterThroughput(cfg, 200, 1, 1, 1)
			if err != nil {
				return Result{}, err
			}
			g, err := gpuThroughput(cfg, hw.BigBasin(), 1600, placement.GPUMemory, 0)
			if err != nil {
				return Result{}, err
			}
			cpuT[i][j] = c.Throughput
			gpuT[i][j] = g.Throughput
			ratio[i][j] = g.Throughput / c.Throughput
			powerEff[i][j] = ratio[i][j] / T.Fig10PowerDivisor
			if cpuMin == 0 || c.Throughput < cpuMin {
				cpuMin = c.Throughput
			}
			if gpuMin == 0 || g.Throughput < gpuMin {
				gpuMin = g.Throughput
			}
		}
	}
	norm := func(m [][]float64, base float64) [][]float64 {
		out := make([][]float64, len(m))
		for i := range m {
			out[i] = make([]float64, len(m[i]))
			for j := range m[i] {
				out[i][j] = m[i][j] / base
			}
		}
		return out
	}
	var b strings.Builder
	b.WriteString("CPU normalized throughput (dense rows x sparse cols):\n")
	b.WriteString(metrics.Heatmap(denseLabels, sparseLabels, norm(cpuT, cpuMin), "%.2f"))
	b.WriteString("\nGPU normalized throughput:\n")
	b.WriteString(metrics.Heatmap(denseLabels, sparseLabels, norm(gpuT, gpuMin), "%.2f"))
	b.WriteString("\nGPU/CPU throughput ratio (paper values in note):\n")
	b.WriteString(metrics.Heatmap(denseLabels, sparseLabels, ratio, "%.2f"))
	b.WriteString("\nGPU/CPU power efficiency (setup power: Big Basin 7.3 units vs 3 CPU nodes):\n")
	b.WriteString(metrics.Heatmap(denseLabels, sparseLabels, powerEff, "%.2f"))

	paper := make([][]float64, len(T.Fig10Ratio))
	for i := range T.Fig10Ratio {
		paper[i] = T.Fig10Ratio[i][:]
	}
	note := "Paper GPU/CPU ratios:\n" + metrics.Heatmap(denseLabels, sparseLabels, paper, "%.2f") +
		"Modeled ratios stay within the paper's 1.9-5.6x band; the GPU advantage\n" +
		"grows with dense features, and power efficiency favors the CPU for the\n" +
		"smallest dense models (paper cells < 1), matching the published pattern."
	return Result{Output: b.String(), PaperNote: note}, nil
}

// ---- Fig 11 ----

func fig11(Options) (Result, error) {
	var b strings.Builder
	header := []string{"config (dense-sparse)"}
	for _, bb := range workload.SweepCPUBatch {
		header = append(header, fmt.Sprintf("cpu@%d", bb))
	}
	for _, bb := range workload.SweepGPUBatch {
		header = append(header, fmt.Sprintf("gpu@%d", bb))
	}
	rows := [][]string{header}
	var base float64
	for _, d := range workload.SweepDense {
		for _, s := range workload.SweepSparse {
			cfg := workload.DefaultTestSuite(d, s)
			row := []string{fmt.Sprintf("%d-%d", d, s)}
			for _, batch := range workload.SweepCPUBatch {
				c, err := cpuClusterThroughput(cfg, batch, 1, 1, 1)
				if err != nil {
					return Result{}, err
				}
				if base == 0 {
					base = c.Throughput
				}
				row = append(row, metrics.F2(c.Throughput/base))
			}
			for _, batch := range workload.SweepGPUBatch {
				g, err := gpuThroughput(cfg, hw.BigBasin(), batch, placement.GPUMemory, 0)
				if err != nil {
					return Result{}, err
				}
				row = append(row, metrics.F2(g.Throughput/base))
			}
			rows = append(rows, row)
		}
	}
	b.WriteString(metrics.Table(rows))
	note := "Paper: GPU throughput rises roughly linearly with batch before\n" +
		"saturating; CPU gains little from larger batches. Modeled GPU columns\n" +
		"rise steeply 400->3200 with diminishing returns; CPU columns are nearly\n" +
		"flat, matching the published shapes."
	return Result{Output: b.String(), PaperNote: note}, nil
}

// ---- Fig 12 ----

func fig12(Options) (Result, error) {
	header := []string{"config (dense-sparse)"}
	for _, h := range workload.SweepHash {
		header = append(header, fmt.Sprintf("cpu@%g", float64(h)))
	}
	for _, h := range workload.SweepHash {
		header = append(header, fmt.Sprintf("gpu@%g", float64(h)))
	}
	rows := [][]string{header}
	var base float64
	for _, d := range workload.SweepDense {
		for _, s := range workload.SweepSparse {
			row := []string{fmt.Sprintf("%d-%d", d, s)}
			for _, h := range workload.SweepHash {
				cfg := workload.TestSuiteConfig(d, s, 512, 3, h)
				c, err := cpuClusterThroughput(cfg, 200, 1, 1, 1)
				if err != nil {
					return Result{}, err
				}
				if base == 0 {
					base = c.Throughput
				}
				row = append(row, metrics.F2(c.Throughput/base))
			}
			for _, h := range workload.SweepHash {
				cfg := workload.TestSuiteConfig(d, s, 512, 3, h)
				g, err := gpuThroughput(cfg, hw.BigBasin(), 1600, placement.GPUMemory, 0)
				if err != nil {
					// Tables exceed the 8-GPU HBM budget: the paper's
					// capacity wall.
					row = append(row, "OOM")
					continue
				}
				row = append(row, metrics.F2(g.Throughput/base))
			}
			rows = append(rows, row)
		}
	}
	note := "Paper: CPU throughput is insensitive to hash size; GPU throughput\n" +
		"drops significantly as growing tables force more GPUs into the exchange.\n" +
		"Modeled: CPU flat; GPU declines ~1.5-2x across the sweep (paper shows a\n" +
		"steeper ~4x drop) and hits OOM where tables exceed 8-GPU HBM — the\n" +
		"capacity cliff the paper works around with remote placement."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}

// ---- Fig 13 ----

func fig13(Options) (Result, error) {
	rows := [][]string{{"mlp dims", "cpu norm", "gpu norm", "gpu/cpu"}}
	var cpuBase, gpuBase float64
	for _, w := range workload.SweepMLPWidths {
		for _, l := range workload.SweepMLPDepths {
			cfg := workload.TestSuiteConfig(1024, 64, w, l, workload.TestSuiteHashSize)
			c, err := cpuClusterThroughput(cfg, 200, 1, 1, 1)
			if err != nil {
				return Result{}, err
			}
			g, err := gpuThroughput(cfg, hw.BigBasin(), 1600, placement.GPUMemory, 0)
			if err != nil {
				return Result{}, err
			}
			if cpuBase == 0 {
				cpuBase, gpuBase = c.Throughput, g.Throughput
			}
			rows = append(rows, []string{
				fmt.Sprintf("%d^%d", w, l),
				metrics.F2(c.Throughput / cpuBase),
				metrics.F2(g.Throughput / gpuBase),
				metrics.F2(g.Throughput / c.Throughput),
			})
		}
	}
	note := "Paper (config 1024-64): throughput holds until MLPs exceed ~256^3,\n" +
		"then the CPU drops faster than the GPU. Modeled: the gpu/cpu column\n" +
		"grows monotonically with MLP size, i.e. the CPU pays more for bigger\n" +
		"MLPs, matching the published claim."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}

// ---- Fig 14 ----

func fig14(Options) (Result, error) {
	m2 := workload.M2Prod()
	setup, err := workload.ProdSetup("M2prod")
	if err != nil {
		return Result{}, err
	}
	base, err := gpuThroughput(m2, hw.BigBasin(), setup.OptimalGPUBatch, placement.RemoteCPU, 8)
	if err != nil {
		return Result{}, err
	}
	rows := [][]string{{"platform", "placement", "norm throughput", "paper", "bottleneck"}}
	paperVals := map[string][3]float64{
		"BigBasin": perfmodel.PaperTargets.Fig14BigBasin,
		"Zion":     perfmodel.PaperTargets.Fig14Zion,
	}
	for _, platform := range []hw.Platform{hw.BigBasin(), hw.Zion()} {
		for k, strat := range []placement.Strategy{placement.GPUMemory, placement.SystemMemory, placement.RemoteCPU} {
			bd, err := gpuThroughput(m2, platform, setup.OptimalGPUBatch, strat, 8)
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, []string{platform.Name, strat.String(),
				metrics.F2(bd.Throughput / base.Throughput),
				metrics.F2(paperVals[platform.Name][k]),
				bd.Bottleneck})
		}
	}
	note := "Paper: Big Basin is fastest with embeddings in GPU memory; Zion's\n" +
		"prototype lacks GPU-GPU links, so its best placement is system memory\n" +
		"(its 1TB/s host DRAM). All orderings reproduced; normalization is Big\n" +
		"Basin RemoteCPU = 1 as in the figure."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}

// ---- Tables ----

func table1(Options) (Result, error) {
	rows := [][]string{{"platform", "accelerators", "accel mem", "system mem", "cpu", "interconnect", "power"}}
	for _, p := range hw.Platforms() {
		acc, am := "-", "-"
		if p.IsGPU() {
			acc = fmt.Sprintf("%d x %s", p.NumGPUs, p.GPU.Name)
			am = core.HumanBytes(p.GPU.MemCapacity)
		}
		rows = append(rows, []string{
			p.Name, acc, am,
			core.HumanBytes(p.CPU.MemCapacity),
			fmt.Sprintf("%d sockets x %d cores", p.CPU.Sockets, p.CPU.CoresPerSocket),
			p.NIC.Name,
			fmt.Sprintf("%.1fx", p.PowerUnits),
		})
	}
	note := "Matches Table I: 256GB/256GB/~2TB system memory, 8 V100s on the GPU\n" +
		"platforms, 25GbE / 100GbE / 4x IB-100 interconnects."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}

func table2(Options) (Result, error) {
	rows := [][]string{{"model", "# sparse", "# dense", "emb size", "mean lookups", "bottom MLP", "top MLP"}}
	for _, cfg := range workload.ProdModels() {
		var meanLen float64
		for _, s := range cfg.Sparse {
			meanLen += s.MeanPooled
		}
		meanLen /= float64(cfg.NumSparse())
		bot := dimsString(cfg.BottomMLP)
		top := dimsString(cfg.TopMLP)
		rows = append(rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", cfg.NumSparse()),
			fmt.Sprintf("%d", cfg.DenseFeatures),
			core.HumanBytes(cfg.EmbeddingBytes()),
			metrics.F2(meanLen),
			bot, top,
		})
	}
	note := "Matches Table II: 30/13/127 sparse features, 800/504/809 dense,\n" +
		"tens/tens/hundreds of GB of embeddings, 28/17/49 mean lookups."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}

func dimsString(dims []int) string {
	parts := make([]string, len(dims))
	for i, d := range dims {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, "-")
}

func table3(Options) (Result, error) {
	T := perfmodel.PaperTargets
	rows := [][]string{{"model", "cpu setup", "gpu placement", "opt batch (paper)",
		"gpu/cpu thpt", "paper", "gpu/cpu power eff", "paper"}}
	strats := []placement.Strategy{placement.GPUMemory, placement.GPUMemory, placement.RemoteCPU}
	remotes := []int{0, 0, 8}
	batchSweep := []int{200, 400, 800, 1600, 3200, 6400}
	for k, cfg := range workload.ProdModels() {
		setup, err := workload.ProdSetup(cfg.Name)
		if err != nil {
			return Result{}, err
		}
		cpu, err := cpuClusterThroughput(cfg, setup.TrainerBatch, setup.Trainers, setup.SparsePS, setup.DensePS)
		if err != nil {
			return Result{}, err
		}
		plan, err := placement.Fit(cfg, hw.BigBasin(), strats[k], remotes[k])
		if err != nil {
			return Result{}, err
		}
		optBatch, err := perfmodel.SaturationBatch(perfmodel.Scenario{
			Cfg: cfg, Platform: hw.BigBasin(), Plan: plan}, batchSweep, 0.85)
		if err != nil {
			return Result{}, err
		}
		gpu, err := perfmodel.Estimate(perfmodel.Scenario{
			Cfg: cfg, Platform: hw.BigBasin(), Batch: setup.OptimalGPUBatch, Plan: plan})
		if err != nil {
			return Result{}, err
		}
		thptRatio := gpu.Throughput / cpu.Throughput
		peRatio := gpu.PowerEfficiency() / cpu.PowerEfficiency()
		rows = append(rows, []string{
			cfg.Name,
			fmt.Sprintf("%dtr+%dps", setup.Trainers, setup.SparsePS+setup.DensePS),
			plan.Strategy.String(),
			fmt.Sprintf("%d (%d)", optBatch, setup.OptimalGPUBatch),
			metrics.F2(thptRatio), metrics.F2(T.TableIIIThroughput[k]),
			metrics.F2(peRatio), metrics.F2(T.TableIIIPowerEff[k]),
		})
	}
	note := "Paper: M1 gains 2.25x throughput / 4.3x power efficiency on GPU;\n" +
		"M2 roughly breaks even (0.85x) with a 2.8x efficiency win; M3 (tables\n" +
		"too large for GPU memory) loses at 0.67x. Modeled ratios preserve the\n" +
		"ordering and the win/lose classification of all three models."
	return Result{Output: metrics.Table(rows), PaperNote: note}, nil
}
