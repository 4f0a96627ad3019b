package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket layout: HDR-style log-linear. Values below
// histSubCount land in exact unit buckets; above that, each power-of-two
// octave is split into histSubCount linear sub-buckets, so the bucket
// width is always at most 1/(histSubCount/2) of the bucket's lower
// bound. Reporting the bucket midpoint therefore bounds the relative
// error of any quantile: with histSubBits=5 the worst case is
// (2^e/2)/(16·2^e) = 3.125%.
const (
	histSubBits  = 5
	histSubCount = 1 << histSubBits // 32 linear sub-buckets per octave
	// histBuckets covers the full non-negative int64 range: exponents
	// run 0..64-histSubBits, histSubCount sub-buckets each.
	histBuckets = (64 - histSubBits + 1) * histSubCount // 1920
)

// Histogram is a fixed-size, log-bucketed latency histogram. Record is
// allocation- and lock-free (three atomic adds), safe for concurrent
// writers, and the struct is a flat value: Clone snapshots it with
// atomic loads, Merge folds shard snapshots together, and the quantile
// accessors run on quiescent copies. The zero value is ready to use.
//
// Values are int64 (nanoseconds by convention); negative values clamp
// to bucket zero and do not contribute to Sum.
type Histogram struct {
	counts [histBuckets]uint64
	count  uint64
	sum    uint64
}

// histBucket maps a value to its bucket index.
func histBucket(v int64) int {
	if v < 0 {
		return 0
	}
	u := uint64(v)
	if u < histSubCount {
		return int(u)
	}
	e := bits.Len64(u) - histSubBits // ≥1 here; u>>e ∈ [histSubCount/2, histSubCount)
	return e*histSubCount + int(u>>uint(e))
}

// histValue returns the representative (midpoint) value of bucket b —
// the inverse of histBucket up to half a bucket width.
func histValue(b int) int64 {
	if b < histSubCount {
		return int64(b)
	}
	e := uint(b / histSubCount)
	m := uint64(b % histSubCount)
	lo := m << e
	return int64(lo + (uint64(1)<<e)/2)
}

// Record adds one observation. It allocates nothing and may race freely
// with other Record and Clone calls.
func (h *Histogram) Record(v int64) {
	atomic.AddUint64(&h.counts[histBucket(v)], 1)
	atomic.AddUint64(&h.count, 1)
	if v > 0 {
		atomic.AddUint64(&h.sum, uint64(v))
	}
}

// Clone returns a point-in-time copy taken with atomic loads, safe to
// call while writers are live. The copy is a plain value; all read
// accessors below assume they run on such a quiescent copy (or on a
// histogram whose writers have stopped).
func (h *Histogram) Clone() Histogram {
	var out Histogram
	for i := range h.counts {
		out.counts[i] = atomic.LoadUint64(&h.counts[i])
	}
	out.count = atomic.LoadUint64(&h.count)
	out.sum = atomic.LoadUint64(&h.sum)
	return out
}

// Merge folds o into h bucket-wise. Both sides must be quiescent
// (clones or stopped writers); merging is commutative and associative,
// so per-rank shard histograms reduce in any order.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.count += o.count
	h.sum += o.sum
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the exact mean of recorded values (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns the value at rank q ∈ [0,1] — the representative of
// the bucket holding the ⌈q·count⌉-th smallest observation, accurate to
// 3.125% relative error. q ≥ 1 returns Max; an empty histogram returns 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	if q >= 1 {
		return h.Max()
	}
	target := uint64(q * float64(h.count))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i]
		if cum >= target {
			return histValue(i)
		}
	}
	return h.Max()
}

// Max returns the representative value of the highest non-empty bucket
// (0 when empty).
func (h *Histogram) Max() int64 {
	for i := histBuckets - 1; i >= 0; i-- {
		if h.counts[i] != 0 {
			return histValue(i)
		}
	}
	return 0
}

// Quantiles is the rendered summary of one histogram: the percentile
// set the paper's tail-latency analysis needs, in the histogram's value
// unit (nanoseconds throughout this package).
type Quantiles struct {
	Count uint64
	Mean  float64
	P50   int64
	P95   int64
	P99   int64
	P999  int64
	Max   int64
}

// Summary computes the standard quantile bundle.
func (h *Histogram) Summary() Quantiles {
	return Quantiles{
		Count: h.count,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
	}
}
