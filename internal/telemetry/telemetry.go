// Package telemetry is the unified observability layer of the training
// stack: a zero-allocation span tracer, a counter/gauge registry, and the
// exporters (Chrome trace_event JSON, plain-text timelines, expvar/pprof
// HTTP) that make one training step visible end to end.
//
// The source paper is a performance *characterization* study — its whole
// contribution is knowing where DLRM training time goes across lookup,
// compute, and communication. This package is the repository's
// measurement substrate for that discipline: every hot path (ingest
// read/decode/shuffle/assemble, embedding lookup, all-to-all, dense
// forward/backward, all-reduce, sparse scatter and apply, optimizer)
// records spans into fixed-capacity per-shard slabs, and every scattered
// meter (collective bytes/calls, ingest MB/s, ring occupancy, starvation,
// dedup ratio) lives behind one Registry of cheap atomic instruments.
// Span timings can then be joined against perfmodel's analytic phase
// estimates (AttributionReport), reproducing the paper's time-breakdown
// figures from live traces.
//
// Design constraints, in order:
//
//  1. Recording must be allocation- and lock-free: Begin reads the
//     clock; End writes one pre-allocated slot. The steady-state
//     training step stays 0 allocs/step with tracing enabled (guarded by
//     AllocsPerRun tests at the repository root).
//  2. Every duration in the system shares one clock: nanoseconds since
//     the package's process-start epoch, read monotonically (Now). This
//     is what lets ingest starvation, hybrid exposed-communication time,
//     and step wall time be compared and summed without wall-clock skew.
//  3. A nil *Tracer (and a nil instrument) is a valid no-op, so hot
//     paths instrument unconditionally and pay one predictable branch
//     when telemetry is off.
//
// The package deliberately imports no other internal package except
// internal/metrics (pure rendering), so core, collective, ingest,
// hybrid, and perfmodel can all depend on it without cycles.
package telemetry

import (
	"fmt"
	"time"
)

// epoch anchors the package clock at process start. All telemetry
// timestamps are nanoseconds since this instant, read via the runtime's
// monotonic clock — never wall time, so clock steps/skew cannot break
// span arithmetic.
var epoch = time.Now()

// Now returns nanoseconds elapsed since the telemetry epoch, from the
// monotonic clock. It allocates nothing.
func Now() int64 { return int64(time.Since(epoch)) }

// Phase is the span taxonomy: one label per hot-path segment of a
// training step, from shard read to optimizer update. The set mirrors
// the operator categories of the paper's breakdown figures.
type Phase uint8

const (
	// PhaseStep delimits one whole training step on a shard; the other
	// phases tile its interior.
	PhaseStep Phase = iota
	// PhaseIngestRead is shard-file IO (ReadAt + bandwidth throttle).
	PhaseIngestRead
	// PhaseIngestDecode parses a shard image into example blocks.
	PhaseIngestDecode
	// PhaseIngestShuffle admits decoded examples into the bounded
	// shuffle reservoir.
	PhaseIngestShuffle
	// PhaseIngestAssemble fills a recycled MiniBatch from the reservoir
	// (including the optional RecD dedup build).
	PhaseIngestAssemble
	// PhaseBatchWait is the trainer blocked on an empty prefetch ring —
	// the span form of the starvation meter.
	PhaseBatchWait
	// PhaseEmbLookup is the pooled embedding-table gather.
	PhaseEmbLookup
	// PhaseAllToAll is the pooled-row / pooled-gradient exchange.
	PhaseAllToAll
	// PhaseDenseFwd is the dense forward pass (bottom MLP, interaction,
	// top MLP).
	PhaseDenseFwd
	// PhaseLoss is loss + logit-gradient computation.
	PhaseLoss
	// PhaseDenseBwd is the dense backward pass.
	PhaseDenseBwd
	// PhaseAllReduce is dense-gradient synchronization. On a step shard
	// it is the *exposed* time (blocked waiting); an overlapped
	// all-reduce records its full duration on a background shard.
	PhaseAllReduce
	// PhaseSparseScatter is the embedding-gradient scatter into the
	// per-table sparse gradients.
	PhaseSparseScatter
	// PhaseSparseApply is the sparse optimizer's update of the touched
	// embedding rows.
	PhaseSparseApply
	// PhaseOptimizer is the dense optimizer update.
	PhaseOptimizer
	// PhaseCheckpoint is a durable-checkpoint write (internal/ckpt):
	// dense + touched-row serialization, hashing, and disk IO. It runs
	// between steps, so attribution reports it outside step windows.
	PhaseCheckpoint
	// PhaseRestore is a checkpoint restore (manifest verification plus
	// the base-and-delta chain replay into live parameters).
	PhaseRestore

	// NumPhases bounds the taxonomy (for fixed-size per-phase arrays).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"step",
	"ingest_read",
	"ingest_decode",
	"ingest_shuffle",
	"ingest_assemble",
	"batch_wait",
	"emb_lookup",
	"all_to_all",
	"dense_fwd",
	"loss",
	"dense_bwd",
	"all_reduce",
	"sparse_scatter",
	"sparse_apply",
	"optimizer",
	"checkpoint",
	"restore",
}

// String implements fmt.Stringer.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}
