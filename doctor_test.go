package recsim

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// TestDoctorClassifiesRegimes checks the performance doctor's verdict on
// three regimes: a dense-heavy hybrid run on a perfect wire is
// compute-bound, the same model on a crippled 1 MB/s link is
// communication-bound (the Link-priced model time dominates even though
// the in-process collectives move at memory speed), and a trainer
// starved by a throttled reader is reader-bound. Each report also
// carries the snapshot's attribution.
//
// The straggler index is judged the same way: both clean 2-rank
// recordings stay under the threshold, and so does the compute run with
// rank 0's self time raised 1.5× on every step (index 2r/(1+r) = 1.2 at
// r = 1.5), while 2× (1.33) is flagged with rank 0 slowest.
//
// Each case classifies a recorded run, not a live one. A verdict turns on
// the ratio of phase times, and a live run only added the chance that a
// loaded box skews them: two ranks' wall clocks into a straggler verdict,
// or a faster reader under a slower trainer into a compute verdict.
// straggler_analysis prints its live clean runs' index for that reason
// but does not judge it.
func TestDoctorClassifiesRegimes(t *testing.T) {
	for _, c := range []struct {
		name string
		run  recording
		want string
	}{
		{"compute", recordedComputeRun, telemetry.VerdictCompute},
		{"comm", recordedSlowWireRun, telemetry.VerdictAllReduce},
		{"reader", recordedReaderRun, telemetry.VerdictReader},
		{"rank0x1.5", recordedComputeRun.slowRank0(1.5), telemetry.VerdictCompute},
		{"rank0x2", recordedComputeRun.slowRank0(2), telemetry.VerdictStraggler},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := c.run.replay()
			rep := telemetry.Diagnose(in)
			if rep.Verdict != c.want {
				t.Fatalf("verdict %q, want %q\n%s", rep.Verdict, c.want, rep.Render())
			}
			imb, want := rep.Imbalance, c.want == telemetry.VerdictStraggler
			if imb.Straggling() != want || want && imb.Slowest != 0 {
				t.Fatalf("imbalance index %.3f, slowest rank %d; want straggling=%v with rank 0 slowest\n%s",
					imb.Index, imb.Slowest, want, imb.Render())
			}
			// The report carries the attribution it was read from, for
			// callers that render it too.
			if !reflect.DeepEqual(rep.Attribution, telemetry.Attribute(in.Snap)) {
				t.Fatal("report's attribution differs from Attribute(snapshot)")
			}
		})
	}
}

// seg is one recorded span: a phase and its duration.
type seg struct {
	phase telemetry.Phase
	durUS int64
}

// recording is a traced run as the tracer and the meters recorded it on
// the 2-vCPU box, reduced to one representative step: per-phase times
// rounded to the microsecond and every step given the same tiling.
type recording struct {
	steps    int64
	periodUS int64   // from one step's start to the next's
	tiling   [][]seg // by rank: the spans that tile its step window
	// bgAllReduceUS is the overlapped all-reduce by rank, on a background
	// shard from the end of dense_bwd; nil without overlap.
	bgAllReduceUS []int64
	// batchWaitUS is the trainer blocked on the ingest ring before each
	// step, on a shard of its own.
	batchWaitUS int64
	perStep     map[string]int64 // registry counter -> increment per step
}

// replay feeds the recording through a real Tracer and Registry.
func (rc recording) replay() telemetry.DoctorInput {
	ranks := len(rc.tiling)
	tr := telemetry.NewTracer(2*ranks+1, 4096)
	for step := int64(0); step < rc.steps; step++ {
		start := step * rc.periodUS * 1e3
		if rc.batchWaitUS > 0 {
			tr.Emit(2*ranks, telemetry.PhaseBatchWait, start, start+rc.batchWaitUS*1e3)
			start += rc.batchWaitUS * 1e3
		}
		for r, segs := range rc.tiling {
			at := start
			for _, sg := range segs {
				end := at + sg.durUS*1e3
				tr.Emit(r, sg.phase, at, end)
				if sg.phase == telemetry.PhaseDenseBwd && rc.bgAllReduceUS != nil {
					tr.Emit(ranks+r, telemetry.PhaseAllReduce, end, end+rc.bgAllReduceUS[r]*1e3)
				}
				at = end
			}
			tr.Emit(r, telemetry.PhaseStep, start, at)
		}
	}
	reg := telemetry.NewRegistry()
	for name, v := range rc.perStep {
		reg.Counter(name).Add(rc.steps * v)
	}
	return telemetry.DoctorInput{Snap: tr.Snapshot(), Metrics: reg.Snapshot()}
}

// slowRank0 returns the 2-rank recording with rank 0's self time raised
// r× on every step. Its dense backward runs that much longer, and rank 1,
// reaching the last all-to-all that much earlier, waits there for it:
// rank 1's step and metered wait grow alike, so its self time holds.
func (rc recording) slowRank0(r float64) recording {
	self := telemetry.Diagnose(rc.replay()).Imbalance.Ranks[0].SelfSec
	extra := int64((r - 1) * self / float64(rc.steps) * 1e6)
	out := rc
	out.periodUS += extra
	out.tiling = [][]seg{slices.Clone(rc.tiling[0]), slices.Clone(rc.tiling[1])}
	out.tiling[0][4].durUS += extra // rank 0's dense_bwd
	out.tiling[1][5].durUS += extra // rank 1's second all_to_all
	out.perStep = maps.Clone(rc.perStep)
	out.perStep["collective/rank1/wait_ns"] += extra * 1000
	return out
}

// The hybrid recordings are 40 steps (after one warm-up) of a model small
// in embeddings and heavy in dense FLOPs — 32 dense features, 2 tables of
// 200 rows × 5 ids, dim 8, bottom MLP 128-128, top 128-64, dot
// interaction — on two ranks at batch 256 with overlapped all-reduce.

// recordedComputeRun is that model on a perfect link: per-phase means
// over the 40 steps, with each rank's two all-to-alls split as in one
// sampled step. Nothing is wire-priced; each rank blocked ~1 ms per step
// at rendezvous.
var recordedComputeRun = recording{
	steps: 40, periodUS: 11546,
	tiling: [][]seg{
		{{telemetry.PhaseEmbLookup, 17}, {telemetry.PhaseAllToAll, 250}, {telemetry.PhaseDenseFwd, 3173},
			{telemetry.PhaseLoss, 8}, {telemetry.PhaseDenseBwd, 7161}, {telemetry.PhaseAllToAll, 576},
			{telemetry.PhaseSparseScatter, 43}, {telemetry.PhaseAllReduce, 60}, {telemetry.PhaseOptimizer, 81}},
		{{telemetry.PhaseEmbLookup, 20}, {telemetry.PhaseAllToAll, 375}, {telemetry.PhaseDenseFwd, 4119},
			{telemetry.PhaseLoss, 7}, {telemetry.PhaseDenseBwd, 5915}, {telemetry.PhaseAllToAll, 750},
			{telemetry.PhaseSparseScatter, 60}, {telemetry.PhaseAllReduce, 85}, {telemetry.PhaseOptimizer, 92}},
	},
	bgAllReduceUS: []int64{614, 1203},
	perStep: map[string]int64{
		"collective/rank0/wait_ns": 823_500,
		"collective/rank1/wait_ns": 1_122_800,
	},
}

// recordedSlowWireRun is that model over a 1 MB/s, 100 µs link, every
// step given the first one's tiling. Per step the link prices 253 kB of
// dense gradient and 16 kB of pooled rows; each rank blocked ~1 ms at
// rendezvous.
var recordedSlowWireRun = recording{
	steps: 40, periodUS: 9200,
	tiling: [][]seg{
		{{telemetry.PhaseEmbLookup, 14}, {telemetry.PhaseAllToAll, 40}, {telemetry.PhaseDenseFwd, 2453},
			{telemetry.PhaseLoss, 7}, {telemetry.PhaseDenseBwd, 5531}, {telemetry.PhaseAllToAll, 797},
			{telemetry.PhaseSparseScatter, 39}, {telemetry.PhaseAllReduce, 142}, {telemetry.PhaseOptimizer, 75}},
		{{telemetry.PhaseEmbLookup, 15}, {telemetry.PhaseAllToAll, 20}, {telemetry.PhaseDenseFwd, 3400},
			{telemetry.PhaseLoss, 6}, {telemetry.PhaseDenseBwd, 5419}, {telemetry.PhaseAllToAll, 43},
			{telemetry.PhaseSparseScatter, 46}, {telemetry.PhaseAllReduce, 22}, {telemetry.PhaseOptimizer, 71}},
	},
	bgAllReduceUS: []int64{976, 21},
	perStep: map[string]int64{
		"collective/allreduce/model_ns": 253_400_000,
		"collective/alltoall/model_ns":  16_784_000,
		"collective/rank0/wait_ns":      725_000,
		"collective/rank1/wait_ns":      1_066_000,
	},
}

// recordedReaderRun is 8 steps of a single-process trainer (8 dense
// features, 2 tables of 100 rows × 5 ids, dim 8, MLPs 16/16) at batch 64,
// fed by an ingest pipeline with one reader throttled to 200 KB/s: per-
// phase means over the 8 steps. The trainer sat in three ~99 ms stalls,
// one per shard read, spread here as 37 ms before every step, and the
// pipeline's starvation meter saw the same.
var recordedReaderRun = recording{
	steps: 8, periodUS: 37_300,
	tiling: [][]seg{
		{{telemetry.PhaseEmbLookup, 6}, {telemetry.PhaseDenseFwd, 47}, {telemetry.PhaseLoss, 3},
			{telemetry.PhaseDenseBwd, 62}, {telemetry.PhaseSparseScatter, 16}, {telemetry.PhaseOptimizer, 1}},
	},
	batchWaitUS: 37_094,
	perStep:     map[string]int64{"ingest/starved_ns": 37_093_653},
}
