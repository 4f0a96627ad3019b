package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/collective"
)

// setupReps is how often a run builds the workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// result is what one run of one workload reports.
type result struct {
	attempted, failed int
	errs              []string
	metrics           map[string]float64
}

// runOpts are the settings of one run.
type runOpts struct {
	seed    int64
	seconds float64
	quick   bool
	workdir string
}

// budget is a share of the run's measuring time.
func (o runOpts) budget(share float64) time.Duration {
	return time.Duration(share * o.seconds * float64(time.Second))
}

// measureEndToEnd is the untraced run: it times set-up, runs the loop
// with one clock pair per iteration for the run's seconds, takes held-out
// NE after exactly qualitySteps timed steps, and checks the outputs.
func measureEndToEnd(w workload, o runOpts) (result, error) {
	var r *rig
	var setups []float64
	reps := setupReps
	if o.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if r != nil {
			r.close()
			r = nil
			runtime.GC() // the next build reuses this one's heap, so VmHWM stays one build high
		}
		var err error
		if r, err = build(w, o.seed, false, o.workdir); err != nil {
			return result{}, err
		}
		setups = append(setups, r.setup.Seconds())
	}
	defer r.close()

	start := time.Now()
	iterNs := make([]int64, 0, 1<<16)
	err := r.run(nil, &iterNs, w.qualitySteps, 0)
	ne := r.heldoutNE()
	if err == nil {
		err = r.run(nil, &iterNs, 0, o.budget(1)-time.Since(start))
	}
	if err != nil {
		return r.result(nil), nil // the failure is counted; report it, do not hide it behind an exit code
	}

	r.attempted++
	if !(ne < r.untrainedNE) && !o.quick {
		r.fail("held-out NE %v after %d steps is not below the untrained %v", ne, w.qualitySteps, r.untrainedNE)
	}
	if r.store != nil {
		r.checkRestore()
	}
	return r.result(map[string]float64{
		"examples_per_sec": bestWindowRate(iterNs, float64(w.batch), w.windowSteps()),
		"step_ms_p05":      percentile(msOf(iterNs), 5),
		"heldout_ne":       ne,
		"setup_s":          median(setups),
		"peak_rss_mb":      peakRSSMB(),
	}), nil
}

func (r *rig) result(m map[string]float64) result {
	return result{attempted: r.attempted, failed: r.failed, errs: r.errs, metrics: m}
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// measureLayers is the traced run. An untraced pass gives the numbers
// that tracing would disturb (tail latency, allocations, the median the
// overhead is taken against); a traced pass of the same length records a
// span around every call into a layer; solo runs then time single layers
// with nothing else going on. Every per-layer metric is reported on every
// workload, 0 where the workload does not use the layer.
func measureLayers(w workload, o runOpts) (result, error) {
	r, err := build(w, o.seed, true, o.workdir)
	if err != nil {
		return result{}, err
	}
	defer r.close()
	m := make(map[string]float64)
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["harness.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))

	// Baselines after set-up, so warm-up is not counted per step.
	var coll0 collective.Totals
	var wait0 int64
	if r.hyb != nil {
		coll0 = r.hyb.CollectiveStats()
		wait0 = r.rankWaitNs()
	}
	if r.pipe != nil {
		r.pipe.Registry().Reset()
	}
	lookups0 := r.evalModel().TotalLookups()
	bd0 := r.bd

	minSteps := 0
	if o.quick {
		minSteps = w.qualitySteps
	}
	untraced := make([]int64, 0, 1<<16)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := r.run(nil, &untraced, minSteps, o.budget(0.4)); err != nil {
		return r.result(nil), nil
	}
	runtime.ReadMemStats(&ms1)

	tr := newTracer(1 << 18)
	traced := make([]int64, 0, 1<<16)
	if err := r.run(tr, &traced, minSteps, o.budget(0.4)); err != nil {
		return r.result(nil), nil
	}
	steps := float64(len(untraced) + len(traced))

	// Whole-loop numbers.
	untracedMs := msOf(untraced)
	tail := tailPercentile(len(untraced))
	trainer := "core"
	if r.hyb != nil {
		trainer = "hybrid"
	}
	m[trainer+".step_ms_tail"] = percentile(untracedMs, tail)
	m[trainer+".allocs_per_step"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(untraced))
	m["harness.step_ms_p50"] = median(untracedMs)
	m["harness.step_tail_pct"] = tail
	m["harness.step_samples"] = float64(len(untraced))
	// Low percentiles on both sides: the machine's other tenants disturb
	// the two passes differently, the quiet steps of each are comparable.
	m["harness.trace_overhead_share"] = percentile(msOf(traced), 5)/percentile(untracedMs, 5) - 1
	m["embedding.lookups_per_step"] = float64(r.evalModel().TotalLookups()-lookups0) / steps

	// Spans: per-layer self time per step, and shares of the traced loop.
	self := selfByName(tr.spans)
	iterTotal := float64(sum(traced))
	spanMs := func(name string) float64 { return median(msOf(self[name])) }
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += sum(self[n])
		}
		return float64(ns) / iterTotal
	}
	if r.comp != nil {
		n := float64(len(traced))
		m["core.dense_fwd_ms"] = spanMs("core.dense_fwd")
		m["core.dense_bwd_ms"] = spanMs("core.dense_bwd")
		m["embedding.lookup_ms"] = spanMs("embedding.lookup")
		m["embedding.scatter_ms"] = spanMs("embedding.scatter")
		m["optim.dense_ms"] = spanMs("optim.dense")
		m["optim.sparse_ms"] = spanMs("optim.sparse")
		m["optim.sparse_rows_per_step"] = float64(r.comp.gradRows) / n
		m["embedding.dedup_ratio"] = float64(r.comp.gradRows) / float64(r.comp.lookups)
		m["embedding.lookup_ns_per_row"] = float64(sum(self["embedding.lookup"])) / float64(r.comp.lookups)
		m["core.dense_share"] = share("core.dense_fwd", "nn.loss", "core.dense_bwd", "optim.dense")
		m["embedding.sparse_share"] = share("embedding.lookup", "embedding.scatter", "optim.sparse")
		m["embedding.lookups_per_step"] = float64(r.comp.lookups) / n
	}
	if r.hyb != nil {
		bd := r.bd
		stepSec := bd.Step - bd0.Step
		m["hybrid.compute_share"] = (bd.Compute - bd0.Compute) / stepSec
		m["hybrid.a2a_share"] = (bd.AllToAll - bd0.AllToAll) / stepSec
		m["hybrid.allreduce_share"] = (bd.AllReduce - bd0.AllReduce) / stepSec
		m["hybrid.exposed_share"] = (bd.Exposed - bd0.Exposed) / stepSec
		coll := r.hyb.CollectiveStats()
		m["collective.a2a_bytes_per_step"] = float64(coll.AllToAll.Bytes-coll0.AllToAll.Bytes) / steps
		m["collective.allreduce_bytes_per_step"] = float64(coll.AllReduce.Bytes-coll0.AllReduce.Bytes) / steps
		m["collective.calls_per_step"] = float64(coll.AllToAll.Calls+coll.AllReduce.Calls-coll0.AllToAll.Calls-coll0.AllReduce.Calls) / steps
		m["collective.rank_wait_share"] = float64(r.rankWaitNs()-wait0) / float64(r.hyb.Ranks()) / (stepSec * 1e9)
	}
	if r.pipe != nil {
		mt := r.pipe.Meters()
		m["ingest.batch_wait_ms_p50"] = spanMs("ingest.next_batch")
		m["ingest.batch_wait_share"] = share("ingest.next_batch")
		m["ingest.starvation_frac"] = mt.StarvationFrac()
		m["ingest.read_mb_per_s"] = mt.ReadMBps()
		m["ingest.dedup_ratio"] = mt.DedupRatio()
		m["ingest.ring_occupancy"] = mt.Occupancy()
		m["ingest.write_mb_per_s"] = r.writeMBps
	}
	if r.store != nil {
		info := r.checkRestore()
		// Re-hashing every checkpoint the run wrote reads them all back
		// into memory, so only the traced run, which reports no RSS, does it.
		t0 := time.Now()
		r.attempted++
		if err := r.store.Verify(); err != nil {
			r.fail("verify: %v", err)
		}
		verify := time.Since(t0)
		tail := tailPercentile(len(r.saveMs))
		m["ckpt.save_delta_ms_p50"] = median(r.deltaMs)
		m["ckpt.save_full_ms_p50"] = median(r.fullMs)
		m["ckpt.save_ms_tail"] = percentile(r.saveMs, tail)
		m["ckpt.save_tail_pct"] = tail
		m["ckpt.stall_share"] = share("ckpt.save")
		m["ckpt.bytes_per_save"] = div(float64(r.saveByte), float64(len(r.saveMs)))
		m["ckpt.rows_per_delta"] = div(float64(r.deltaRow), float64(len(r.deltaMs)))
		m["ckpt.restore_ms"] = float64(info.Wall) / 1e6
		m["ckpt.restore_chain"] = float64(info.Chain)
		m["ckpt.verify_ms"] = float64(verify) / 1e6
	}

	if err := r.solo(m, o.budget(0.2)); err != nil {
		r.attempted++
		r.fail("solo runs: %v", err)
	}
	path := filepath.Join(o.workdir, fmt.Sprintf("trace_%s.json", w.name))
	if err := writeTrace(path, w.name, o.seed, tr.spans); err != nil {
		return result{}, err
	}
	return r.result(m), nil
}

// div is a/b, or 0 when there were no samples to divide by.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rankWaitNs sums the ranks' rendezvous waits from the collective
// layer's own meters.
func (r *rig) rankWaitNs() int64 {
	snap := r.hyb.Registry().Snapshot()
	var ns int64
	for k := 0; k < r.hyb.Ranks(); k++ {
		ns += snap.Get(fmt.Sprintf("collective/rank%d/wait_ns", k))
	}
	return ns
}
