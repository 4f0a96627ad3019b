package core

// BatchSource supplies training batches to a trainer. Implementations
// stream from sharded on-disk datasets (internal/ingest) or synthesize in
// memory (data.GeneratorSource); the interface is the seam at which the
// feeding pipeline — the paper's disaggregated reader tier (§IV-B2) — is
// swapped under a trainer without touching the training loop.
//
// The Recycle contract is the backpressure protocol: a consumer that is
// done with a batch hands it back so the producer refills it in place
// instead of allocating. A bounded producer that has lent out every batch
// blocks until one comes back; a consumer that never recycles therefore
// stalls a bounded source. Recycling a batch the source did not produce
// is allowed and simply ignored by sources that cannot reuse it.
type BatchSource interface {
	// NextBatch returns the next batch, blocking until one is ready. It
	// returns io.EOF after the final batch of a finite stream.
	NextBatch() (*MiniBatch, error)
	// Recycle returns an exhausted batch to the source for reuse. The
	// caller must not touch the batch afterwards.
	Recycle(*MiniBatch)
}

// SourceFactory opens the batch stream positioned after its first skip
// batches, plus a release func. The run loop (internal/train) calls it
// once per start and once per recovery, never concurrently, with skip =
// the trainer's step count, so a resumed or rolled-back trainer sees the
// batches an uninterrupted run would have seen at that step. A stream
// that cannot seek (a shuffled on-disk dataset) ignores skip and gives up
// that guarantee; data.ReplaySource is the positionable one.
type SourceFactory func(skip int) (BatchSource, func(), error)
