package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/metrics"
)

// median returns the middle value of v (mean of the middle two for an
// even count), or 0 for an empty slice. v is not modified.
func median(v []float64) float64 { return percentile(v, 50) }

// percentile returns the p-th percentile of v by linear interpolation
// between closest ranks, or 0 for an empty slice. v is not modified.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return metrics.Summarize(v).Quantile(p / 100)
}

// tailPercentile is the reporting rule for timings: the highest of
// p99.9, p99 and p90 that still has at least ten samples beyond it among
// n, falling back to the median when even p90 has fewer.
func tailPercentile(n int) float64 {
	for _, t := range []struct {
		p        float64
		perMille int // samples beyond p, per thousand
	}{{99.9, 1}, {99, 10}, {90, 100}} {
		if n*t.perMille >= 10*1000 {
			return t.p
		}
	}
	return 50
}

// bestWindowRate returns the highest work ÷ time over any size
// consecutive steps, where each step does perStep units of work.
// Interference from other tenants of the machine only ever slows a
// stretch down, so the fastest stretch is the least disturbed one: probes
// showed its run-to-run spread at a tenth of the median window's. The
// window slides a step at a time; a workload's periodic costs (a shard
// decode, a checkpoint) recur at fixed step counts, so every position of
// a window that is a multiple of the period holds the same number of
// them. With fewer steps than one window it is one window over
// everything.
func bestWindowRate(stepNs []int64, perStep float64, size int) float64 {
	if len(stepNs) == 0 {
		return 0
	}
	size = min(size, len(stepNs))
	ns := sum(stepNs[:size])
	fastest := ns
	for i := size; i < len(stepNs); i++ {
		ns += stepNs[i] - stepNs[i-size]
		fastest = min(fastest, ns)
	}
	return perStep * float64(size) / (float64(fastest) / 1e9)
}

// msOf converts nanosecond samples to milliseconds.
func msOf(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, d := range ns {
		out[i] = float64(d) / 1e6
	}
	return out
}

// span is one traced interval, recorded by the harness around a call
// into a layer. Parent is the index of the enclosing span in the trace
// (-1 for a root); spans of one loop iteration share Step.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Step   int32  `json:"step"`
}

// tracer appends spans to a preallocated slice; nothing is written out
// until the workload ends. A nil tracer records nothing, so the untraced
// pass pays one branch per call site.
type tracer struct {
	spans []span
	epoch time.Time
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, 0, capacity), epoch: time.Now()}
}

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int32, step int) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Step: int32(step)})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) {
	if t != nil {
		t.spans[i].End = int64(time.Since(t.epoch))
	}
}

// selfTimes returns, per span, its duration minus the durations of its
// direct children. The harness records from one goroutine, so siblings
// never overlap and the sum of children is the part they cover.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// selfByName groups span self times by span name, one sample per span.
func selfByName(spans []span) map[string][]int64 {
	by := make(map[string][]int64)
	for i, ns := range selfTimes(spans) {
		by[spans[i].Name] = append(by[spans[i].Name], ns)
	}
	return by
}

func sum(ns []int64) int64 {
	var t int64
	for _, d := range ns {
		t += d
	}
	return t
}

// writeTrace dumps the spans as one JSON document.
func writeTrace(path, workload string, seed int64, spans []span) error {
	js, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, js, 0o644)
}
