package perfmodel

import "repro/internal/core"

// Analytic collective volumes of the synchronous hybrid-parallel step
// (internal/hybrid). These are the same quantities the GPU estimate
// prices per iteration; exposing them lets the real engine's byte meters
// be crosschecked against the model (see collective_test.go), exactly as
// the memtier subsystem validates its analytic hit rates against
// replayed traces.

// HybridAllToAllBytesWire returns the total bytes the pooled-embedding
// exchange moves across rank boundaries per iteration, summed over ranks
// and both directions (forward rows + backward gradients):
//
//	2 · B · S · d · bytesPerElem · (n-1)/n
//
// Each of the S tables produces B pooled rows of d values per
// direction; with table-wise sharding a (n-1)/n share of every row
// crosses a rank boundary. bytesPerElem is 4 for fp32, 2 for fp16/bf16
// and 1.0625 for int8 (collective.WireFormat.BytesPerElem). The int8
// figure is exact when every per-destination payload is a multiple of
// the 64-element scale chunk (B·d·tables-per-rank usually is); ragged
// payloads add one 4-byte scale per destination, well inside the
// crosscheck tolerance.
func HybridAllToAllBytesWire(cfg core.Config, batch, ranks int, bytesPerElem float64) float64 {
	if ranks <= 1 {
		return 0
	}
	pooled := float64(batch) * float64(cfg.NumSparse()) * float64(cfg.EmbeddingDim) * bytesPerElem
	return 2 * pooled * float64(ranks-1) / float64(ranks)
}

// HybridAllReduceBytesWire returns the total bytes the ring all-reduce
// of dense (MLP) gradients moves across rank boundaries per iteration,
// summed over ranks:
//
//	2 · (n-1) · denseParams · bytesPerElem
//
// (each rank sends and receives a 2·(n-1)/n share of the gradient
// vector, and n ranks participate). The dense parameter count is
// DenseParamBytes()/4; bytesPerElem is as in HybridAllToAllBytesWire.
func HybridAllReduceBytesWire(cfg core.Config, ranks int, bytesPerElem float64) float64 {
	if ranks <= 1 {
		return 0
	}
	elems := float64(cfg.DenseParamBytes()) / 4
	return 2 * float64(ranks-1) * elems * bytesPerElem
}
