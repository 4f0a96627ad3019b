// Performance-doctor walkthrough: run the hybrid trainer twice — once
// clean, once with one rank slowed by an injected per-step delay fault —
// and let the doctor classify both runs. The clean run is diagnosed by
// its dominant cost bucket; the faulted run flips to straggler-bound,
// with the slow rank attributed from the collective rendezvous-wait
// meters (the straggler reaches every barrier last and waits the
// least). Finishes with a quantile readout from the zero-allocation
// phase histograms and a bench-report diff under the CI gate's
// tolerance policy.
package main

import (
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/collective"
)

func main() {
	if err := demo(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func demo() error {
	cfg := recsim.ModelConfig{
		Name:          "doctor-demo",
		DenseFeatures: 16,
		Sparse:        recsim.UniformSparse(4, 2000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   recsim.InteractionDot,
	}
	fmt.Println(recsim.Describe(cfg))
	const iters, batch, ranks = 30, 64, 2

	for _, faulted := range []bool{false, true} {
		title := "clean run"
		if faulted {
			title = "rank 0 delayed 2ms per step"
		}
		fmt.Printf("\n=== %s ===\n", title)

		// One tracer + registry per run: rank spans land on shards
		// [0, ShardCount), every meter (including the per-rank
		// collective wait counters the straggler analysis joins) lands
		// in the registry.
		hc := recsim.HybridConfig{Ranks: ranks, LR: 0.05, Seed: 1, Overlap: true}
		reg := recsim.NewTelemetryRegistry()
		tracer := recsim.NewTracer(hc.ShardCount(), 4096)
		hc.Registry, hc.Trace, hc.TraceShard = reg, tracer, 0
		// Publishing the phase histograms makes /metrics and
		// Snapshot.Render carry p50/p95/p99/p999 per phase.
		recsim.RegisterPhaseHists(reg, tracer)

		ht, err := recsim.NewHybridTrainer(cfg, hc)
		if err != nil {
			return err
		}
		if faulted {
			var faults []collective.Fault
			for s := 0; s <= iters; s++ {
				faults = append(faults, collective.Fault{
					Kind: collective.FaultDelay, Rank: 0, Step: s, Delay: 2 * time.Millisecond,
				})
			}
			ht.SetFaults(collective.NewFaultSchedule(faults...))
		}
		gen := recsim.NewGenerator(cfg, 2)
		if _, _, err := recsim.TrainFrom(ht, gen.NewSource(batch), iters); err != nil {
			ht.Close()
			return err
		}
		ht.Close()

		// The doctor fuses the span trace with the metrics snapshot.
		rep := recsim.Diagnose(recsim.DoctorInput{
			Snap:    tracer.Snapshot(),
			Metrics: reg.Snapshot(),
		})
		fmt.Print(rep.Render())

		if !faulted {
			// Quantiles from the zero-allocation phase histograms.
			h := tracer.PhaseHist(recsim.TracePhase(0)) // step
			q := h.Summary()
			fmt.Printf("\nstep latency: n=%d mean %.3fms p50 %.3fms p99 %.3fms max %.3fms\n",
				q.Count, q.Mean/1e6, float64(q.P50)/1e6, float64(q.P99)/1e6, float64(q.Max)/1e6)
		}
	}

	// The same tolerance policy gates CI: diff the two most recent
	// committed bench reports.
	old, new := "BENCH_20260808T110216Z.json", "BENCH_20260808T115935Z.json"
	if _, err := os.Stat(old); err == nil {
		d, err := recsim.CompareBenchReports(old, new, recsim.DefaultBenchTolerance())
		if err != nil {
			return err
		}
		fmt.Printf("\n=== bench trajectory gate ===\n%s", d.Render())
	}
	return nil
}
