package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// ShardAttribution is the per-shard join of step windows and interior
// phase spans. A shard appears here only if it recorded PhaseStep spans
// (trainer / rank shards); background shards (ingest stages, overlapped
// all-reduce goroutines) are aggregated separately.
type ShardAttribution struct {
	Shard  int
	Name   string
	Steps  int
	StepNS int64            // summed step wall time on this shard
	Phases [NumPhases]int64 // phase ns clipped to this shard's step windows
}

// Coverage is the fraction of this shard's step wall time accounted for
// by interior phase spans — the "phases sum to wall" acceptance check.
func (s ShardAttribution) Coverage() float64 {
	if s.StepNS == 0 {
		return 0
	}
	var sum int64
	for p := Phase(1); p < NumPhases; p++ {
		sum += s.Phases[p]
	}
	return float64(sum) / float64(s.StepNS)
}

// Attribution is the structural decomposition of a trace snapshot:
// which step shard spent how long in which phase, what ran in the
// background (overlapped), and the critical-path wall time.
type Attribution struct {
	Shards []ShardAttribution
	// Background holds phase time from shards with no step spans —
	// pipelined ingest stages and overlapped all-reduce. This is work
	// hidden under (or beside) the step critical path, reported
	// separately from the exposed in-step phases.
	Background [NumPhases]int64
	// WallNS is the critical-path step time: the max summed step wall
	// across step shards (ranks run concurrently, so the slowest rank
	// bounds throughput).
	WallNS int64
	// TotalSteps sums Steps over all step shards (rank-steps).
	TotalSteps int
}

// Attribute decomposes a snapshot. Non-step spans on a step shard are
// clipped to that shard's step windows (eval-time or warmup spans
// outside any window don't count); spans on shards without step windows
// accumulate into Background at full duration.
func Attribute(s TraceSnapshot) Attribution {
	byShard := make(map[int32][]Span)
	for _, sp := range s.Spans {
		byShard[sp.Shard] = append(byShard[sp.Shard], sp)
	}
	shardIDs := make([]int32, 0, len(byShard))
	for id := range byShard {
		shardIDs = append(shardIDs, id)
	}
	sort.Slice(shardIDs, func(i, j int) bool { return shardIDs[i] < shardIDs[j] })

	var a Attribution
	for _, id := range shardIDs {
		spans := byShard[id]
		var windows [][2]int64
		for _, sp := range spans {
			if sp.Phase == PhaseStep {
				windows = append(windows, [2]int64{sp.Start, sp.End})
			}
		}
		if len(windows) == 0 {
			for _, sp := range spans {
				a.Background[sp.Phase] += sp.Dur()
			}
			continue
		}
		sa := ShardAttribution{Shard: int(id), Name: s.ShardName(int(id)), Steps: len(windows)}
		for _, w := range windows {
			sa.StepNS += w[1] - w[0]
		}
		for _, sp := range spans {
			if sp.Phase == PhaseStep {
				continue
			}
			sa.Phases[sp.Phase] += overlap(sp, windows)
		}
		a.TotalSteps += sa.Steps
		if sa.StepNS > a.WallNS {
			a.WallNS = sa.StepNS
		}
		a.Shards = append(a.Shards, sa)
	}
	return a
}

// overlap returns the nanoseconds of sp covered by any window. Windows
// from a single-writer shard are disjoint, so overlaps simply add.
func overlap(sp Span, windows [][2]int64) int64 {
	var total int64
	for _, w := range windows {
		lo, hi := sp.Start, sp.End
		if lo < w[0] {
			lo = w[0]
		}
		if hi > w[1] {
			hi = w[1]
		}
		if hi > lo {
			total += hi - lo
		}
	}
	return total
}

// PerStepNS returns the observed average nanoseconds per rank-step for
// each phase — summed phase time over step shards divided by the total
// rank-step count. This is the quantity comparable to a per-device
// analytic prediction.
func (a Attribution) PerStepNS() [NumPhases]float64 {
	var out [NumPhases]float64
	if a.TotalSteps == 0 {
		return out
	}
	for _, sa := range a.Shards {
		for p := Phase(0); p < NumPhases; p++ {
			out[p] += float64(sa.Phases[p])
		}
	}
	for p := Phase(0); p < NumPhases; p++ {
		out[p] /= float64(a.TotalSteps)
	}
	return out
}

// StepWallNS returns observed average step wall nanoseconds per
// rank-step.
func (a Attribution) StepWallNS() float64 {
	if a.TotalSteps == 0 {
		return 0
	}
	var sum int64
	for _, sa := range a.Shards {
		sum += sa.StepNS
	}
	return float64(sum) / float64(a.TotalSteps)
}

// Coverage is the phase-sum / step-wall ratio over all step shards. The
// tracer's gap-free tiling (Tracer.Next) makes this structurally ~1.0;
// the straggler_analysis experiment asserts |1-Coverage| < 1%.
func (a Attribution) Coverage() float64 {
	var phases, wall int64
	for _, sa := range a.Shards {
		wall += sa.StepNS
		for p := Phase(1); p < NumPhases; p++ {
			phases += sa.Phases[p]
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(phases) / float64(wall)
}

// Render joins the observed per-step phase times against an analytic
// prediction (seconds per phase per step, e.g. perfmodel.PredictedPhases;
// nil for observed-only) into the attribution table, followed by
// background/overlapped totals and the coverage line.
func (a Attribution) Render(predicted map[Phase]float64) string {
	per := a.PerStepNS()
	wall := a.StepWallNS()
	var b strings.Builder
	rows := [][]string{{"phase", "observed ms/step", "predicted ms/step", "obs/pred", "share %"}}
	for p := Phase(1); p < NumPhases; p++ {
		obs := per[p]
		pred, hasPred := 0.0, false
		if predicted != nil {
			pred, hasPred = predicted[p]
		}
		if obs == 0 && !hasPred {
			continue
		}
		predCell, ratioCell := "-", "-"
		if hasPred {
			predCell = metrics.F(pred * 1e3)
			if pred > 0 {
				ratioCell = metrics.F2(obs / 1e9 / pred)
			}
		}
		share := "-"
		if wall > 0 {
			share = metrics.F2(obs / wall * 100)
		}
		rows = append(rows, []string{p.String(), metrics.F(obs / 1e6), predCell, ratioCell, share})
	}
	rows = append(rows, []string{"step (wall)", metrics.F(wall / 1e6), "-", "-", "100.00"})
	b.WriteString(metrics.Table(rows))

	var bg [][]string
	for p := Phase(0); p < NumPhases; p++ {
		if a.Background[p] > 0 {
			bg = append(bg, []string{p.String(), metrics.F(float64(a.Background[p]) / 1e6)})
		}
	}
	if len(bg) > 0 {
		b.WriteString("\nbackground / overlapped (not on the step critical path):\n")
		b.WriteString(metrics.Table(append([][]string{{"phase", "total ms"}}, bg...)))
	}
	fmt.Fprintf(&b, "\nsteps=%d  critical-path wall=%s ms  phase coverage=%.2f%%\n",
		a.TotalSteps, metrics.F(float64(a.WallNS)/1e6), a.Coverage()*100)
	return b.String()
}

// Timeline renders the snapshot as a per-shard ASCII Gantt chart (one
// track per shard, '#' where any non-step span runs) — the quick-look
// text alternative to the Chrome trace.
func (s TraceSnapshot) Timeline(width int) string {
	if len(s.Spans) == 0 {
		return "(no spans)\n"
	}
	t0, t1 := s.Spans[0].Start, s.Spans[0].End
	byShard := make(map[int32][][2]float64)
	var order []int32
	for _, sp := range s.Spans {
		if sp.Start < t0 {
			t0 = sp.Start
		}
		if sp.End > t1 {
			t1 = sp.End
		}
		if sp.Phase == PhaseStep {
			continue
		}
		if _, ok := byShard[sp.Shard]; !ok {
			order = append(order, sp.Shard)
		}
		byShard[sp.Shard] = append(byShard[sp.Shard], [2]float64{float64(sp.Start), float64(sp.End)})
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	rows := make([]metrics.GanttRow, 0, len(order))
	for _, id := range order {
		rows = append(rows, metrics.GanttRow{Label: s.ShardName(int(id)), Intervals: byShard[id]})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "window %s ms (%d spans)\n", metrics.F(float64(t1-t0)/1e6), len(s.Spans))
	b.WriteString(metrics.Gantt(rows, float64(t0), float64(t1), width))

	// Per-phase latency quantiles: the tail view the Gantt hides. Fed
	// from the histogram banks when present (full run coverage), else
	// rebuilt from the retained spans.
	lat := [][]string{{"phase", "spans", "mean ms", "p50 ms", "p99 ms", "max ms"}}
	for p := Phase(0); p < NumPhases; p++ {
		h := s.PhaseHist(p)
		if h.Count() == 0 {
			continue
		}
		q := h.Summary()
		lat = append(lat, []string{
			p.String(), fmt.Sprintf("%d", q.Count),
			metrics.F(q.Mean / 1e6), metrics.F(float64(q.P50) / 1e6),
			metrics.F(float64(q.P99) / 1e6), metrics.F(float64(q.Max) / 1e6),
		})
	}
	if len(lat) > 1 {
		b.WriteString("\nphase latency quantiles:\n")
		b.WriteString(metrics.Table(lat))
	}
	return b.String()
}
