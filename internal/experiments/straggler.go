package experiments

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/train"
)

// recordingSource passes batches through while recording their sparse
// row accesses into a trace collector, so the same run that measures
// rank balance also profiles hot-row skew.
type recordingSource struct {
	core.BatchSource
	col *trace.Collector
}

func (s recordingSource) NextBatch() (*core.MiniBatch, error) {
	mb, err := s.BatchSource.NextBatch()
	if mb != nil {
		s.col.RecordBatch(mb)
	}
	return mb, err
}

// stragglerAnalysis runs the hybrid trainer from disk at 1/2/4 ranks,
// each rank count once clean and once with rank 0 slowed by a per-step
// delay fault, and joins the per-rank rendezvous-wait meters with the
// span trace into the imbalance index the performance doctor keys on.
// A synchronous straggler is invisible in span durations — every rank's
// collectives stretch to the slowest arrival — so the detector reads
// the signal backwards: the straggler reaches every barrier last and
// waits the least, while its peers absorb the lateness as metered
// rendezvous wait. Acceptance: clean runs stay under the straggler
// threshold and keep their compute-bound verdict; faulted multi-rank
// runs cross it, attribute the slowdown to rank 0, and flip the doctor
// verdict to straggler-bound.
func stragglerAnalysis(opt Options) (Result, error) {
	cfg := core.Config{
		Name:          "straggler-analysis",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(8, 2000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   core.DotProduct,
	}
	iters, batch, readers := 24, 64, 2
	rankCounts := []int{1, 2, 4}
	shards, perShard := 4, 768
	delay := 2 * time.Millisecond
	if opt.Quick {
		iters, shards, perShard = 10, 3, 384
		rankCounts = []int{1, 2}
	}

	dir, err := os.MkdirTemp("", "straggler")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(dir)
	gen := data.NewGenerator(cfg, opt.Seed+1, data.DefaultOptions())
	if err := gen.WriteShards(dir, shards, perShard); err != nil {
		return Result{}, err
	}
	ds, err := ingest.OpenDataset(dir)
	if err != nil {
		return Result{}, err
	}
	defer ds.Close()

	var b strings.Builder
	b.WriteString("Straggler detection: imbalance index from rendezvous-wait meters\n")
	fmt.Fprintf(&b, "(hybrid trainer fed from disk, batch %d, %d iters/run; faulted runs stall\n"+
		" rank 0 for %v at every step via the collective fault schedule)\n\n", batch, iters, delay)

	type outcome struct {
		ranks   int
		faulted bool
		imb     telemetry.ImbalanceReport
		verdict string
	}
	var outcomes []outcome
	var skews []telemetry.TableSkew

	platform := hw.BigBasin()
	for _, ranks := range rankCounts {
		for _, faulted := range []bool{false, true} {
			hc := hybrid.Config{
				Ranks: ranks, LR: 0.05, Seed: opt.Seed + 2, Overlap: ranks > 1,
				Link: collective.LinkFor(platform),
			}
			iOpt := ingest.Options{
				BatchSize: batch, Readers: readers, Epochs: 0, Seed: opt.Seed + 3,
			}
			reg := telemetry.NewRegistry()
			tr := telemetry.NewTracer(hc.ShardCount()+iOpt.ShardCount(), 8192)
			hc.Registry, hc.Trace, hc.TraceShard = reg, tr, 0
			iOpt.Registry, iOpt.Trace, iOpt.TraceShard = reg, tr, hc.ShardCount()

			ht, err := hybrid.New(cfg, hc)
			if err != nil {
				return Result{}, err
			}
			// Warm arenas on a throwaway pipeline, then wipe the rings and
			// meters so the measured window starts clean (Tracer.Reset
			// needs the warmup pipeline's goroutines fully stopped).
			warm, err := ingest.Open(ds, cfg, iOpt)
			if err != nil {
				ht.Close()
				return Result{}, err
			}
			_, _, err = train.Span(ht, warm, 3)
			warm.Close()
			if err != nil {
				ht.Close()
				return Result{}, err
			}
			tr.Reset()
			reg.Reset()

			if faulted {
				// One delay per measured step, armed after warmup so the
				// schedule's one-shot faults all land in the window.
				var faults []collective.Fault
				for s := ht.Iter(); s < ht.Iter()+iters; s++ {
					faults = append(faults, collective.Fault{
						Kind: collective.FaultDelay, Rank: 0, Step: s, Delay: delay,
					})
				}
				ht.SetFaults(collective.NewFaultSchedule(faults...))
			}

			col := trace.NewCollector(cfg)
			p, err := ingest.Open(ds, cfg, iOpt)
			if err != nil {
				ht.Close()
				return Result{}, err
			}
			_, _, err = train.Span(ht, recordingSource{p, col}, iters)
			ht.Close()
			p.Close()
			if err != nil {
				return Result{}, err
			}

			snap, ms := tr.Snapshot(), reg.Snapshot()
			if !faulted && ranks == rankCounts[len(rankCounts)-1] {
				// Skew is a property of the data, not the fault: profile it
				// once, on the largest clean run.
				for ti, counts := range col.RowFrequencies() {
					skews = append(skews, telemetry.SkewFromRowCounts(fmt.Sprintf("table%d", ti), counts))
				}
			}
			doc := telemetry.Diagnose(telemetry.DoctorInput{Snap: snap, Metrics: ms, Skew: skews})
			outcomes = append(outcomes, outcome{ranks: ranks, faulted: faulted, imb: doc.Imbalance, verdict: doc.Verdict})
		}
	}

	rows := [][]string{{"ranks", "run", "imbalance idx", "slowest rank", "slowest self s", "mean self s", "verdict"}}
	ok := true
	for _, o := range outcomes {
		kind := "clean"
		if o.faulted {
			kind = "rank 0 delayed"
		}
		var meanSelf, slowSelf float64
		for _, r := range o.imb.Ranks {
			meanSelf += r.SelfSec / float64(len(o.imb.Ranks))
			if r.Rank == o.imb.Slowest {
				slowSelf = r.SelfSec
			}
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", o.ranks), kind, metrics.F2(o.imb.Index),
			fmt.Sprintf("%d", o.imb.Slowest), metrics.F(slowSelf), metrics.F(meanSelf), o.verdict,
		})
		if !o.faulted && o.imb.Straggling() {
			ok = false
			fmt.Fprintf(&b, "WARNING: clean %d-rank run flagged as straggling (index %.2f)\n", o.ranks, o.imb.Index)
		}
		if o.faulted && o.ranks > 1 {
			if o.verdict != telemetry.VerdictStraggler || o.imb.Slowest != 0 {
				ok = false
				fmt.Fprintf(&b, "WARNING: faulted %d-rank run not attributed to rank 0 (verdict %s, slowest %d)\n",
					o.ranks, o.verdict, o.imb.Slowest)
			}
		}
	}
	b.WriteString(metrics.Table(rows))

	// Render the most lopsided faulted run in full: the per-rank
	// wait/self decomposition is the point of the detector.
	var worst *outcome
	for i := range outcomes {
		if o := &outcomes[i]; o.faulted && (worst == nil || o.imb.Index > worst.imb.Index) {
			worst = o
		}
	}
	if worst != nil {
		fmt.Fprintf(&b, "\n--- %d ranks, rank 0 delayed %v/step ---\n%s", worst.ranks, delay, worst.imb.Render())
	}

	b.WriteString("\nhot-row skew (from the same run's sparse accesses):\n")
	srows := [][]string{{"table", "rows", "lookups", "top 1% share", "top 10% share", "max row"}}
	for _, sk := range skews {
		srows = append(srows, []string{
			sk.Table, fmt.Sprintf("%d", sk.Rows), fmt.Sprintf("%d", sk.Lookups),
			metrics.F2(sk.Top1Share), metrics.F2(sk.Top10Share), fmt.Sprintf("%d", sk.MaxRow),
		})
	}
	b.WriteString(metrics.Table(srows))

	if ok {
		fmt.Fprintf(&b, "\nacceptance: clean runs < %.2f threshold, every faulted multi-rank run straggler-bound with rank 0 slowest\n",
			telemetry.StragglerIndexThreshold)
	}
	note := "Paper (§IV-C, Fig 5): production training fleets lose throughput to\n" +
		"trainer imbalance — utilization spreads across hosts mean the\n" +
		"synchronous step runs at the slowest trainer's pace. Measured: an\n" +
		"injected per-step delay on one rank is invisible in span durations\n" +
		"(every rank's collectives stretch together) but the rendezvous-wait\n" +
		"meters recover it — the straggler waits least, its peers wait most,\n" +
		"and max/mean self time cleanly separates faulted runs (index well\n" +
		"above the 1.25 threshold, slowest rank correctly attributed) from\n" +
		"clean ones (~1.0), flipping the doctor verdict to straggler-bound."
	return Result{Output: b.String(), PaperNote: note}, nil
}
