package core

import (
	"testing"
)

func testConfig() Config {
	return Config{
		Name:          "test",
		DenseFeatures: 16,
		Sparse:        UniformSparse(4, 100, 5),
		EmbeddingDim:  8,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   DotProduct,
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := testConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := cfg
	bad.DenseFeatures = 0
	if bad.Validate() == nil {
		t.Error("zero dense features accepted")
	}
	bad = cfg
	bad.Sparse = nil
	if bad.Validate() == nil {
		t.Error("no sparse features accepted")
	}
	bad = testConfig()
	bad.Sparse[0].HashSize = -1
	if bad.Validate() == nil {
		t.Error("negative hash size accepted")
	}
	bad = testConfig()
	bad.Sparse[1].MeanPooled = 0
	if bad.Validate() == nil {
		t.Error("zero mean pooled accepted")
	}
	bad = testConfig()
	bad.EmbeddingDim = 0
	if bad.Validate() == nil {
		t.Error("zero embedding dim accepted")
	}
}

func TestDimsComputation(t *testing.T) {
	cfg := testConfig()
	// Bottom: 16 -> 32 -> 8
	bd := cfg.BottomDims()
	if len(bd) != 3 || bd[0] != 16 || bd[2] != 8 {
		t.Errorf("BottomDims = %v", bd)
	}
	// Dot interaction: C(5,2)=10 dots + d=8 -> 18.
	if id := cfg.InteractionDim(); id != 18 {
		t.Errorf("dot InteractionDim = %d, want 18", id)
	}
	td := cfg.TopDims()
	if td[0] != 18 || td[len(td)-1] != 1 {
		t.Errorf("TopDims = %v", td)
	}
	cfg.Interaction = Concat
	// Concat: (4+1)*8 = 40.
	if id := cfg.InteractionDim(); id != 40 {
		t.Errorf("concat InteractionDim = %d, want 40", id)
	}
}

func TestModelStatistics(t *testing.T) {
	cfg := testConfig()
	if b := cfg.EmbeddingBytes(); b != 4*int64(100*8*4) {
		t.Errorf("EmbeddingBytes = %d", b)
	}
	if l := cfg.LookupsPerExample(); l != 20 {
		t.Errorf("LookupsPerExample = %v, want 20", l)
	}
	if f := cfg.MLPFLOPsPerExample(); f <= 0 {
		t.Errorf("MLPFLOPsPerExample = %d", f)
	}
	if f := cfg.InteractionFLOPsPerExample(); f != 10*2*8 {
		t.Errorf("InteractionFLOPsPerExample = %d, want 160", f)
	}
	cfg.Interaction = Concat
	if f := cfg.InteractionFLOPsPerExample(); f != 0 {
		t.Errorf("concat interaction FLOPs = %d, want 0", f)
	}
	if b := cfg.DenseParamBytes(); b <= 0 {
		t.Errorf("DenseParamBytes = %d", b)
	}
	stats := cfg.TableStats()
	if len(stats) != 4 || stats[2].Bytes != 100*8*4 {
		t.Errorf("TableStats = %+v", stats)
	}
}

func TestUniformSparse(t *testing.T) {
	feats := UniformSparse(3, 1000, 7.5)
	if len(feats) != 3 {
		t.Fatalf("len = %d", len(feats))
	}
	for _, f := range feats {
		if f.HashSize != 1000 || f.MeanPooled != 7.5 || f.MaxPooled != 32 {
			t.Errorf("feature %+v", f)
		}
	}
	if feats[0].Name == feats[1].Name {
		t.Error("feature names must be distinct")
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:           "512 B",
		2 << 10:       "2.0 KB",
		3 << 20:       "3.0 MB",
		5 << 30:       "5.0 GB",
		2 << 40:       "2.0 TB",
		1<<30 + 1<<29: "1.5 GB",
	}
	for in, want := range cases {
		if got := HumanBytes(in); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", in, got, want)
		}
	}
}

func TestInteractionString(t *testing.T) {
	if Concat.String() != "concat" || DotProduct.String() != "dot" {
		t.Error("Interaction.String mismatch")
	}
	if Interaction(9).String() == "" {
		t.Error("unknown interaction should still render")
	}
}
