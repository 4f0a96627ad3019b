package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// RankStat is one rank's share of the straggler analysis: its step wall
// time, how long it sat blocked at collective rendezvous points, and the
// self time left over — the rank's own work plus any injected stall.
//
// Synchronous collectives make stragglers invisible in span durations
// (every rank's all-to-all stretches to the slowest rank's arrival), so
// the join runs the other way: a straggler reaches every barrier last
// and therefore *waits the least*, while its peers absorb the lateness
// as rendezvous wait. Subtracting wait from step wall recovers each
// rank's true self time.
type RankStat struct {
	Rank  int
	Name  string
	Steps int
	// Seconds, summed over the rank's steps.
	StepSec float64
	WaitSec float64
	SelfSec float64
	// Per-step wall-time quantiles from the rank's step histogram.
	StepP50 float64
	StepP99 float64
}

// ImbalanceReport joins per-rank phase attribution with the collective
// rendezvous-wait meters into the paper-style trainer-imbalance view.
type ImbalanceReport struct {
	Ranks []RankStat
	// Index is max(self)/mean(self) across ranks — 1.0 for a perfectly
	// balanced world; StragglerIndexThreshold flags a straggler.
	Index float64
	// Slowest is the rank with the largest self time (-1 when empty).
	Slowest int
	// PhaseIndex/PhaseSlowest give the same max/mean attribution per
	// phase (index 0 unused — PhaseStep is covered by Index).
	PhaseIndex   [NumPhases]float64
	PhaseSlowest [NumPhases]int
}

// StragglerIndexThreshold is the imbalance index above which a run is
// classified straggler-bound. Balanced runs measure ~1.0–1.1 even under
// scheduler noise (the index is a ratio of whole-run totals); a rank
// stalled a few percent of step time already clears 1.25.
const StragglerIndexThreshold = 1.25

// rankWaitNs extracts the per-rank rendezvous wait meters
// ("collective/rank<k>/wait_ns") from a metrics snapshot.
func rankWaitNs(s Snapshot) map[int]int64 {
	out := map[int]int64{}
	for _, m := range s.Metrics {
		rest, ok := strings.CutPrefix(m.Name, "collective/rank")
		if !ok {
			continue
		}
		numStr, ok := strings.CutSuffix(rest, "/wait_ns")
		if !ok {
			continue
		}
		k, err := strconv.Atoi(numStr)
		if err != nil {
			continue
		}
		out[k] = m.Value
	}
	return out
}

// Imbalance computes the straggler report for a run: attr, the trace
// snapshot's attribution, supplies per-rank step windows and phases
// (step shards in ascending shard order are ranks 0..n-1, the hybrid
// trainer's layout), snap the per-rank step histograms, and the metrics
// snapshot the collective wait meters. With overlapped all-reduce
// (detected by background all-reduce spans) the background goroutine's
// barrier waits are unmetered — they hide under compute — and the
// rank's exposed all-reduce join span counts as wait instead: it is
// exactly the time the critical path sat blocked on the collective.
// SelfSec is clamped at a floor of zero.
func Imbalance(attr Attribution, snap TraceSnapshot, ms Snapshot) ImbalanceReport {
	waits := rankWaitNs(ms)
	overlapped := attr.Background[PhaseAllReduce] > 0
	rep := ImbalanceReport{Slowest: -1}
	for i, sa := range attr.Shards {
		wait := float64(waits[i]) / 1e9
		if overlapped {
			wait += float64(sa.Phases[PhaseAllReduce]) / 1e9
		}
		step := float64(sa.StepNS) / 1e9
		self := step - wait
		if self < 0 {
			self = 0
		}
		sh := snap.ShardPhaseHist(sa.Shard, PhaseStep)
		rep.Ranks = append(rep.Ranks, RankStat{
			Rank: i, Name: sa.Name, Steps: sa.Steps,
			StepSec: step, WaitSec: wait, SelfSec: self,
			StepP50: float64(sh.Quantile(0.50)) / 1e9,
			StepP99: float64(sh.Quantile(0.99)) / 1e9,
		})
	}
	var maxSelf, sumSelf float64
	for _, r := range rep.Ranks {
		sumSelf += r.SelfSec
		if r.SelfSec > maxSelf {
			maxSelf = r.SelfSec
			rep.Slowest = r.Rank
		}
	}
	if n := len(rep.Ranks); n > 0 && sumSelf > 0 {
		rep.Index = maxSelf / (sumSelf / float64(n))
	}
	for p := Phase(1); p < NumPhases; p++ {
		var maxP, sumP float64
		rep.PhaseSlowest[p] = -1
		for i, sa := range attr.Shards {
			v := float64(sa.Phases[p])
			sumP += v
			if v > maxP {
				maxP = v
				rep.PhaseSlowest[p] = i
			}
		}
		if n := len(attr.Shards); n > 0 && sumP > 0 {
			rep.PhaseIndex[p] = maxP / (sumP / float64(n))
		}
	}
	return rep
}

// Straggling reports whether the index crosses the straggler threshold.
func (r ImbalanceReport) Straggling() bool {
	return len(r.Ranks) > 1 && r.Index >= StragglerIndexThreshold
}

// Render returns the per-rank table plus the index summary.
func (r ImbalanceReport) Render() string {
	var b strings.Builder
	rows := [][]string{{"rank", "steps", "step s", "wait s", "self s", "step p50 ms", "step p99 ms"}}
	for _, rk := range r.Ranks {
		rows = append(rows, []string{
			fmt.Sprintf("%d (%s)", rk.Rank, rk.Name), fmt.Sprintf("%d", rk.Steps),
			metrics.F(rk.StepSec), metrics.F(rk.WaitSec), metrics.F(rk.SelfSec),
			metrics.F(rk.StepP50 * 1e3), metrics.F(rk.StepP99 * 1e3),
		})
	}
	b.WriteString(metrics.Table(rows))
	fmt.Fprintf(&b, "imbalance index %.2f (max self / mean self; straggler threshold %.2f)",
		r.Index, StragglerIndexThreshold)
	if r.Slowest >= 0 {
		fmt.Fprintf(&b, ", slowest rank %d", r.Slowest)
	}
	b.WriteString("\n")
	var phased [][]string
	for p := Phase(1); p < NumPhases; p++ {
		if r.PhaseIndex[p] > 0 && r.PhaseSlowest[p] >= 0 {
			phased = append(phased, []string{
				p.String(), metrics.F2(r.PhaseIndex[p]), fmt.Sprintf("%d", r.PhaseSlowest[p]),
			})
		}
	}
	if len(phased) > 0 {
		b.WriteString("per-phase imbalance (slowest-rank attribution):\n")
		b.WriteString(metrics.Table(append([][]string{{"phase", "max/mean", "slowest rank"}}, phased...)))
	}
	return b.String()
}

// TableSkew summarizes one embedding table's hot-row skew, fed from the
// per-row access counts the trace collector keeps (sorted descending).
type TableSkew struct {
	Table string
	// Rows is the number of rows with at least one access; Lookups the
	// total access count.
	Rows    int
	Lookups uint64
	// Top1Share / Top10Share are the lookup fractions served by the
	// hottest 1% / 10% of accessed rows — the access locality MTrainS
	// exploits for tier placement and RecD for dedup.
	Top1Share  float64
	Top10Share float64
	MaxRow     uint64
	// Hist is the distribution of per-row access counts.
	Hist Histogram
}

// SkewFromRowCounts builds the skew summary from raw per-row access
// counts (any order; zero rows are ignored).
func SkewFromRowCounts(table string, counts []uint64) TableSkew {
	sorted := make([]uint64, 0, len(counts))
	for _, c := range counts {
		if c > 0 {
			sorted = append(sorted, c)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	sk := TableSkew{Table: table, Rows: len(sorted)}
	for _, c := range sorted {
		sk.Lookups += c
		sk.Hist.Record(int64(c))
	}
	if len(sorted) == 0 || sk.Lookups == 0 {
		return sk
	}
	sk.MaxRow = sorted[0]
	share := func(frac float64) float64 {
		n := int(frac * float64(len(sorted)))
		if n < 1 {
			n = 1
		}
		var sum uint64
		for _, c := range sorted[:n] {
			sum += c
		}
		return float64(sum) / float64(sk.Lookups)
	}
	sk.Top1Share = share(0.01)
	sk.Top10Share = share(0.10)
	return sk
}
