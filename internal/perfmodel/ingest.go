package perfmodel

import (
	"math"

	"repro/internal/core"
)

// Ingestion-bandwidth terms for the internal/ingest record format. The
// paper's reader tier (§IV-B2) decouples example decode from training;
// whether a setup is reader-bound is a pure bandwidth comparison between
// what the trainer consumes (examples/sec × bytes/example) and what the
// reader fleet delivers (readers × per-reader bandwidth). These formulas
// are the analytic side of that comparison; the pipeline's BytesRead /
// ReadMBps meters are the measured side, and the ingest_scaling
// experiment cross-checks the two.

// IngestRecordBytes returns the exact serialized size of one example
// carrying the given per-feature index counts: a label byte, the dense
// float32 block, and a uint16 count plus int32 ids per sparse feature.
func IngestRecordBytes(denseFeatures int, indexCounts []int) int64 {
	b := int64(1 + 4*denseFeatures)
	for _, n := range indexCounts {
		b += 2 + 4*int64(n)
	}
	return b
}

// IngestBytesPerExample returns the expected on-disk size of one example
// of cfg, using each feature's configured mean pooled length.
func IngestBytesPerExample(cfg core.Config) float64 {
	b := float64(1 + 4*cfg.DenseFeatures)
	for _, s := range cfg.Sparse {
		b += 2 + 4*s.MeanPooled
	}
	return b
}

// IngestBandwidthNeeded returns the aggregate shard-read bandwidth
// (bytes/sec) that keeps a trainer consuming examplesPerSec fed.
func IngestBandwidthNeeded(cfg core.Config, examplesPerSec float64) float64 {
	return examplesPerSec * IngestBytesPerExample(cfg)
}

// IngestExamplesPerSec returns the example rate a reader fleet sustains:
// readers × per-reader bandwidth over the expected record size. The
// trainer-side rate caps end-to-end throughput; min(this, trainer rate)
// is the pipeline's roofline.
func IngestExamplesPerSec(cfg core.Config, readers int, perReaderBW float64) float64 {
	if readers <= 0 || perReaderBW <= 0 {
		return 0
	}
	return float64(readers) * perReaderBW / IngestBytesPerExample(cfg)
}

// IngestReadersNeeded returns the smallest reader count whose aggregate
// bandwidth sustains examplesPerSec — the readers-per-trainer knob the
// ingest_scaling experiment sweeps to find the reader-bound →
// trainer-bound crossover.
func IngestReadersNeeded(cfg core.Config, examplesPerSec, perReaderBW float64) int {
	if perReaderBW <= 0 {
		return 0
	}
	return int(math.Ceil(IngestBandwidthNeeded(cfg, examplesPerSec) / perReaderBW))
}
