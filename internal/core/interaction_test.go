package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
	"repro/internal/xrand"
)

// interactionVecs returns example r's interaction vectors: z, then each
// pooled row.
func interactionVecs(z *tensor.Matrix, pooled []*tensor.Matrix, r int) [][]float32 {
	vecs := [][]float32{z.Row(r)}
	for _, p := range pooled {
		vecs = append(vecs, p.Row(r))
	}
	return vecs
}

// dotInteractionOracle and dotInteractionBackwardOracle are the dot
// interaction as it ran before the pair kernels: one tensor.Dot per pair
// forward, two tensor.Axpy calls per pair with a non-zero gradient
// backward, pairs in lexicographic order.
func dotInteractionOracle(xTop, z *tensor.Matrix, pooled []*tensor.Matrix) {
	d := z.Cols
	for r := 0; r < z.Rows; r++ {
		row := xTop.Row(r)
		copy(row[:d], z.Row(r))
		vecs := interactionVecs(z, pooled, r)
		k := d
		for i := range vecs {
			for j := i + 1; j < len(vecs); j++ {
				row[k] = tensor.Dot(vecs[i], vecs[j])
				k++
			}
		}
	}
}

func dotInteractionBackwardOracle(dXTop, z *tensor.Matrix, pooled []*tensor.Matrix) (dZ *tensor.Matrix, dPooled []*tensor.Matrix) {
	d := z.Cols
	dZ = tensor.New(z.Rows, d)
	for range pooled {
		dPooled = append(dPooled, tensor.New(z.Rows, d))
	}
	for r := 0; r < z.Rows; r++ {
		g := dXTop.Row(r)
		tensor.AddTo(dZ.Row(r), g[:d])
		vecs, dvecs := interactionVecs(z, pooled, r), interactionVecs(dZ, dPooled, r)
		k := d
		for i := range vecs {
			for j := i + 1; j < len(vecs); j++ {
				gd := g[k]
				k++
				if gd == 0 {
					continue
				}
				tensor.Axpy(gd, vecs[j], dvecs[i])
				tensor.Axpy(gd, vecs[i], dvecs[j])
			}
		}
	}
	return dZ, dPooled
}

// TestDotInteractionMatchesScalar holds the dot interaction, forward and
// backward, to the oracle bit for bit with the vector kernels on and off:
// 0-9 tables, widths around the kernels' 4- and 8-element steps, inputs
// with signed zeros, subnormals, infinities and NaN, and upstream
// gradients of which about one in four is +0 or -0 (the skipped pairs).
// The interaction output and dZ/dPooled must match, NaN matching any NaN.
func TestDotInteractionMatchesScalar(t *testing.T) {
	const batch = 5
	hostile := []float32{
		0, float32(math.Copysign(0, -1)), math.Float32frombits(1), -math.Float32frombits(0x007fffff),
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 1e30, -1e-30,
	}
	rng := xrand.New(31)
	fill := func(m *tensor.Matrix, hostileOneIn int) *tensor.Matrix {
		for i := range m.Data {
			if rng.Intn(hostileOneIn) == 0 {
				m.Data[i] = hostile[rng.Intn(len(hostile))]
			} else {
				m.Data[i] = float32(rng.NormMS(0, 1))
			}
		}
		return m
	}
	for s := 0; s <= 9; s++ {
		for _, d := range []int{1, 2, 3, 4, 7, 8, 31, 32, 33, 64, 65} {
			cfg := Config{EmbeddingDim: d, Sparse: make([]SparseFeature, s), Interaction: DotProduct}
			z := fill(tensor.New(batch, d), 32)
			pooled := make([]*tensor.Matrix, s)
			for i := range pooled {
				pooled[i] = fill(tensor.New(batch, d), 32)
			}
			dXTop := fill(tensor.New(batch, cfg.InteractionDim()), 64)
			for r := 0; r < batch; r++ {
				for k, g := d, dXTop.Row(r); k < len(g); k++ {
					switch rng.Intn(8) {
					case 0:
						g[k] = 0
					case 1:
						g[k] = float32(math.Copysign(0, -1))
					}
				}
			}

			wantX := tensor.New(batch, cfg.InteractionDim())
			dotInteractionOracle(wantX, z, pooled)
			wantDZ, wantDPooled := dotInteractionBackwardOracle(dXTop, z, pooled)
			for _, vector := range []bool{false, true} {
				m := &Model{Cfg: cfg, z: z, pooledIn: pooled, xTop: tensor.New(batch, cfg.InteractionDim())}
				func() {
					defer tensor.SetVectorKernels(tensor.SetVectorKernels(vector))
					m.buildInteraction(batch)
					m.backwardInteraction(dXTop)
				}()
				name := fmt.Sprintf("%d tables, d=%d, vector=%v", s, d, vector)
				requireSameFloats(t, name+": interaction output", m.xTop.Data, wantX.Data)
				requireSameFloats(t, name+": dZ", m.dZ.Data, wantDZ.Data)
				for i := range pooled {
					requireSameFloats(t, fmt.Sprintf("%s: dPooled[%d]", name, i), m.dPooled[i].Data, wantDPooled[i].Data)
				}
			}
		}
	}
}

// requireSameFloats is requireSameBits with any NaN matching any NaN: x86
// takes a NaN result's payload from whichever operand comes first.
func requireSameFloats(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, oracle %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), oracle %v (%#x)", what, i, g, math.Float32bits(g), w, math.Float32bits(w))
		}
	}
}
