package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// DoctorInput bundles everything the diagnosis fuses: the span trace,
// the metrics snapshot (collective meters, ingest starvation, checkpoint
// costs, rendezvous waits), the analytic per-phase prediction
// (perfmodel.PredictedPhases; optional), and per-table hot-row skew
// summaries (optional).
type DoctorInput struct {
	Snap      TraceSnapshot
	Metrics   Snapshot
	Predicted map[Phase]float64
	Skew      []TableSkew
}

// ShareEntry is one boundedness bucket of the step-time decomposition.
type ShareEntry struct {
	Name       string
	SecPerStep float64 // average seconds per rank-step
	Share      float64 // fraction of the accounted step time
}

// Finding is one ranked, human-readable diagnosis.
type Finding struct {
	Severity float64 // 0..10, sorts the report
	Title    string
	Detail   string
}

// DoctorReport is the classified run: a verdict naming the dominant
// cost, the bucket decomposition behind it, the straggler analysis, and
// ranked findings.
type DoctorReport struct {
	Verdict   string
	Steps     int // rank-steps observed
	Shares    []ShareEntry
	Imbalance ImbalanceReport
	Findings  []Finding
}

// Boundedness verdicts. Straggler-bound overrides the bucket verdicts:
// a straggling rank inflates every synchronous phase equally, so the
// bucket decomposition alone would misread it as compute- or comm-bound.
const (
	VerdictCompute      = "compute-bound"
	VerdictAllToAll     = "all-to-all-bound"
	VerdictAllReduce    = "all-reduce-bound"
	VerdictReader       = "reader-bound"
	VerdictCheckpoint   = "checkpoint-bound"
	VerdictStraggler    = "straggler-bound"
	VerdictInconclusive = "inconclusive"
)

// computePhases are the on-device phases of the compute bucket.
var computePhases = []Phase{PhaseEmbLookup, PhaseDenseFwd, PhaseLoss, PhaseDenseBwd, PhaseSparseScatter, PhaseSparseApply, PhaseOptimizer}

// Diagnose classifies a run. The decomposition works in average seconds
// per rank-step across five buckets:
//
//   - compute: embedding lookup + dense fwd/bwd + loss + sparse scatter
//     and apply + optimizer, from span attribution.
//   - all-to-all / all-reduce: the larger of the observed exposed phase
//     time and the Link-priced model time from the collective meters.
//     The in-process collectives move bytes at memory speed while the
//     meters record what the configured wire would have charged, so a
//     slow Link shows up only in the modeled term — taking the max keeps
//     both real stalls and modeled wire cost visible.
//   - reader: batch-wait spans and the ingest starvation meter (same
//     signal measured from both sides; the max is used).
//   - checkpoint: checkpoint spans and the ckpt save meter.
//
// The verdict names the largest bucket, unless the imbalance index says
// the spread across ranks, not the mean, is the problem.
func Diagnose(in DoctorInput) DoctorReport {
	attr := Attribute(in.Snap)
	rep := DoctorReport{Steps: attr.TotalSteps, Imbalance: Imbalance(in.Snap, in.Metrics)}
	if attr.TotalSteps == 0 {
		rep.Verdict = VerdictInconclusive
		rep.Findings = append(rep.Findings, Finding{
			Severity: 1, Title: "no step spans recorded",
			Detail: "the trace snapshot holds no PhaseStep windows; enable tracing on the trainer shards",
		})
		return rep
	}
	steps := float64(attr.TotalSteps)
	per := attr.PerStepNS()

	var computeSec float64
	for _, p := range computePhases {
		computeSec += per[p] / 1e9
	}

	modelSec := func(op string) float64 {
		return float64(in.Metrics.Get("collective/"+op+"/model_ns")) / 1e9 / steps
	}
	a2aObs, a2aModel := per[PhaseAllToAll]/1e9, modelSec("alltoall")
	arObs, arModel := per[PhaseAllReduce]/1e9, modelSec("allreduce")
	a2aSec, arSec := max(a2aObs, a2aModel), max(arObs, arModel)

	var batchWaitSec, ckptSpanSec float64
	for _, sp := range in.Snap.Spans {
		switch sp.Phase {
		case PhaseBatchWait:
			batchWaitSec += float64(sp.Dur()) / 1e9
		case PhaseCheckpoint:
			ckptSpanSec += float64(sp.Dur()) / 1e9
		}
	}
	readerSec := max(batchWaitSec, float64(in.Metrics.Get("ingest/starved_ns"))/1e9) / steps
	ckptSec := max(ckptSpanSec, float64(in.Metrics.Get("ckpt/save_ns"))/1e9) / steps

	rep.Shares = []ShareEntry{
		{Name: VerdictCompute, SecPerStep: computeSec},
		{Name: VerdictAllToAll, SecPerStep: a2aSec},
		{Name: VerdictAllReduce, SecPerStep: arSec},
		{Name: VerdictReader, SecPerStep: readerSec},
		{Name: VerdictCheckpoint, SecPerStep: ckptSec},
	}
	var total float64
	for _, s := range rep.Shares {
		total += s.SecPerStep
	}
	top := 0
	for i := range rep.Shares {
		if total > 0 {
			rep.Shares[i].Share = rep.Shares[i].SecPerStep / total
		}
		if rep.Shares[i].SecPerStep > rep.Shares[top].SecPerStep {
			top = i
		}
	}
	rep.Verdict = rep.Shares[top].Name
	if total == 0 {
		rep.Verdict = VerdictInconclusive
	}
	if rep.Imbalance.Straggling() {
		rep.Verdict = VerdictStraggler
	}

	// ---- ranked findings ----
	add := func(sev float64, title, detail string) {
		rep.Findings = append(rep.Findings, Finding{Severity: sev, Title: title, Detail: detail})
	}
	if total > 0 {
		t := rep.Shares[top]
		add(10*t.Share, fmt.Sprintf("dominant cost: %s (%.0f%% of step time)", t.Name, 100*t.Share),
			fmt.Sprintf("%.3f ms of %.3f ms accounted per rank-step", t.SecPerStep*1e3, total*1e3))
	}
	if imb := rep.Imbalance; imb.Straggling() {
		add(min(10, 5*(imb.Index-1)),
			fmt.Sprintf("straggler: rank %d (imbalance index %.2f)", imb.Slowest, imb.Index),
			"the slowest rank's self time dominates; its peers burn the difference blocked at collective rendezvous — "+
				"rebalance or fix the slow rank before optimizing operators")
	}
	if a2aModel > a2aObs*1.5 && a2aModel > 0.05*total {
		add(10*a2aSec/max(total, 1e-12), "all-to-all is wire-limited on the configured link",
			fmt.Sprintf("modeled wire time %.3f ms/step vs %.3f ms observed in-process — a real deployment on this link would be exchange-bound", a2aModel*1e3, a2aObs*1e3))
	}
	if arModel > arObs*1.5 && arModel > 0.05*total {
		add(10*arSec/max(total, 1e-12), "all-reduce is wire-limited on the configured link",
			fmt.Sprintf("modeled wire time %.3f ms/step vs %.3f ms observed in-process", arModel*1e3, arObs*1e3))
	}
	if in.Predicted != nil {
		for p := Phase(1); p < NumPhases; p++ {
			pred := in.Predicted[p]
			obs := per[p] / 1e9
			if pred > 0 && obs > 1.5*pred && obs > 0.05*total {
				add(5*obs/max(total, 1e-12),
					fmt.Sprintf("%s runs %.1fx its analytic prediction", p, obs/pred),
					fmt.Sprintf("observed %.3f ms/step vs predicted %.3f ms/step", obs*1e3, pred*1e3))
			}
		}
	}
	for _, sk := range in.Skew {
		if sk.Top1Share > 0.2 && sk.Lookups > 0 {
			add(2+4*sk.Top1Share,
				fmt.Sprintf("hot-row skew on %s: top 1%% of rows serve %.0f%% of lookups", sk.Table, 100*sk.Top1Share),
				fmt.Sprintf("%d accessed rows, %d lookups, hottest row %d — a candidate for HBM/cache tier placement and RecD dedup", sk.Rows, sk.Lookups, sk.MaxRow))
		}
	}
	if cov := attr.Coverage(); cov < 0.95 && cov > 0 {
		add(2, fmt.Sprintf("phase coverage only %.0f%% of step wall", 100*cov),
			"interior spans do not tile the step windows; per-phase shares are underestimates")
	}
	if in.Snap.Dropped > 0 {
		add(1, fmt.Sprintf("%d spans dropped to ring overwrite", in.Snap.Dropped),
			"raise the tracer ring capacity; histogram quantiles still cover the full run")
	}
	sort.SliceStable(rep.Findings, func(i, j int) bool { return rep.Findings[i].Severity > rep.Findings[j].Severity })
	return rep
}

// Render formats the report: verdict, bucket decomposition, imbalance
// table, and the ranked findings.
func (r DoctorReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "doctor verdict: %s (%d rank-steps)\n", r.Verdict, r.Steps)
	rows := [][]string{{"bucket", "ms/step", "share %"}}
	for _, s := range r.Shares {
		rows = append(rows, []string{s.Name, metrics.F(s.SecPerStep * 1e3), metrics.F(100 * s.Share)})
	}
	b.WriteString(metrics.Table(rows))
	if len(r.Imbalance.Ranks) > 0 {
		b.WriteString("\nstraggler analysis:\n")
		b.WriteString(r.Imbalance.Render())
	}
	if len(r.Findings) > 0 {
		b.WriteString("\nfindings (ranked):\n")
		for i, f := range r.Findings {
			fmt.Fprintf(&b, "%2d. [%.1f] %s\n      %s\n", i+1, f.Severity, f.Title, f.Detail)
		}
	}
	return b.String()
}
