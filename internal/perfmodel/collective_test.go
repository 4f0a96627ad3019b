package perfmodel

import (
	"math"
	"testing"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
)

// TestHybridMetersMatchAnalyticVolumes runs the real synchronous engine
// and crosschecks its observed collective byte meters against the
// analytic all-to-all / all-reduce volume formulas, within 2%. This ties
// the perfmodel's priced traffic to measured traffic the same way the
// memtier hit-rate estimator is tied to replayed traces.
func TestHybridMetersMatchAnalyticVolumes(t *testing.T) {
	cfg := core.Config{
		Name:          "crosscheck",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(8, 2000, 4),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32},
		Interaction:   core.Concat,
	}
	const batch, steps = 96, 4
	wires := []collective.WireFormat{collective.WireFP32, collective.WireFP16, collective.WireINT8}
	for _, wire := range wires {
		for _, ranks := range []int{2, 3, 4} {
			ht, err := hybrid.New(cfg, hybrid.Config{
				Ranks: ranks, Seed: 1, LR: 0.05,
				WireA2A: wire, WireAllReduce: wire,
			})
			if err != nil {
				t.Fatal(err)
			}
			gen := data.NewGenerator(cfg, 3, data.DefaultOptions())
			for i := 0; i < steps; i++ {
				ht.Step(gen.NextBatch(batch))
			}
			st := ht.CollectiveStats()
			ht.Close()

			bpe := wire.BytesPerElem()
			gotA2A := float64(st.AllToAll.Bytes) / steps
			wantA2A := HybridAllToAllBytesWire(cfg, batch, ranks, bpe)
			if rel := math.Abs(gotA2A-wantA2A) / wantA2A; rel > 0.02 {
				t.Errorf("wire=%v ranks=%d: all-to-all %.0f bytes/iter, analytic %.0f (off %.1f%%)",
					wire, ranks, gotA2A, wantA2A, 100*rel)
			}
			gotAR := float64(st.AllReduce.Bytes) / steps
			wantAR := HybridAllReduceBytesWire(cfg, ranks, bpe)
			if rel := math.Abs(gotAR-wantAR) / wantAR; rel > 0.02 {
				t.Errorf("wire=%v ranks=%d: all-reduce %.0f bytes/iter, analytic %.0f (off %.1f%%)",
					wire, ranks, gotAR, wantAR, 100*rel)
			}
		}
	}
}

// TestHybridVolumeFormulas pins the closed forms themselves.
func TestHybridVolumeFormulas(t *testing.T) {
	cfg := core.Config{
		Name:          "formulas",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 100, 2),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
	}
	if got := HybridAllToAllBytesWire(cfg, 64, 1, 4); got != 0 {
		t.Errorf("single rank should exchange nothing, got %v", got)
	}
	// 2 · 64 · 4 tables · 8 dim · 4 bytes · 3/4
	if got, want := HybridAllToAllBytesWire(cfg, 64, 4, 4), 2.0*64*4*8*4*3/4; got != want {
		t.Errorf("all-to-all %v, want %v", got, want)
	}
	if got, want := HybridAllReduceBytesWire(cfg, 4, 4), 6*float64(cfg.DenseParamBytes()); got != want {
		t.Errorf("all-reduce %v, want %v", got, want)
	}
	// Wire-width parameterization: fp16 halves both volumes and int8 is
	// 1.0625 bytes/element.
	if got, want := HybridAllToAllBytesWire(cfg, 64, 4, 2), 2.0*64*4*8*2*3/4; got != want {
		t.Errorf("fp16 all-to-all %v, want %v", got, want)
	}
	if got, want := HybridAllReduceBytesWire(cfg, 4, 1.0625), 6*float64(cfg.DenseParamBytes())/4*1.0625; got != want {
		t.Errorf("int8 all-reduce %v, want %v", got, want)
	}
}
