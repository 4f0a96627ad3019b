package data

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/xrand"
)

func genConfig() core.Config {
	return core.Config{
		Name:          "gen-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 200, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.DotProduct,
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	cfg := genConfig()
	g1 := NewGenerator(cfg, 42, DefaultOptions())
	g2 := NewGenerator(cfg, 42, DefaultOptions())
	b1 := g1.NextBatch(16)
	b2 := g2.NextBatch(16)
	for i := range b1.Labels {
		if b1.Labels[i] != b2.Labels[i] {
			t.Fatal("same seed must give identical labels")
		}
	}
	for i, v := range b1.Dense.Data {
		if v != b2.Dense.Data[i] {
			t.Fatal("same seed must give identical dense features")
		}
	}
	g3 := NewGenerator(cfg, 43, DefaultOptions())
	b3 := g3.NextBatch(16)
	diff := false
	for i := range b1.Dense.Data {
		if b1.Dense.Data[i] != b3.Dense.Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds produced identical data")
	}
}

func TestBatchesAreValid(t *testing.T) {
	cfg := genConfig()
	g := NewGenerator(cfg, 1, DefaultOptions())
	for i := 0; i < 5; i++ {
		b := g.NextBatch(32)
		if err := b.Validate(&cfg); err != nil {
			t.Fatalf("generated batch invalid: %v", err)
		}
	}
}

func TestCTRNearTarget(t *testing.T) {
	cfg := genConfig()
	opts := DefaultOptions()
	opts.TargetCTR = 0.25
	g := NewGenerator(cfg, 2, opts)
	var pos, n float64
	for i := 0; i < 30; i++ {
		b := g.NextBatch(128)
		for _, y := range b.Labels {
			n++
			if y > 0.5 {
				pos++
			}
		}
	}
	ctr := pos / n
	if ctr < 0.10 || ctr > 0.45 {
		t.Errorf("empirical CTR %v too far from target 0.25", ctr)
	}
}

func TestPooledLengthsRespectConfig(t *testing.T) {
	cfg := genConfig()
	cfg.Sparse = core.UniformSparse(2, 500, 8)
	g := NewGenerator(cfg, 3, DefaultOptions())
	maxLen := 0
	var sum, n float64
	for i := 0; i < 20; i++ {
		b := g.NextBatch(64)
		for _, bag := range b.Bags {
			for e := 0; e < bag.Batch(); e++ {
				l := int(bag.Offsets[e+1] - bag.Offsets[e])
				if l > maxLen {
					maxLen = l
				}
				if l < 1 {
					t.Fatal("empty bag generated; min length is 1")
				}
				sum += float64(l)
				n++
			}
		}
	}
	if maxLen > 32 {
		t.Errorf("lookup length %d exceeds truncation 32", maxLen)
	}
	mean := sum / n
	// The rescaled power law should land within a factor ~2 of target.
	if mean < 3 || mean > 16 {
		t.Errorf("mean pooled length %v too far from configured 8", mean)
	}
}

func TestIndexPopularityIsSkewed(t *testing.T) {
	cfg := genConfig()
	cfg.Sparse = core.UniformSparse(1, 10000, 8)
	g := NewGenerator(cfg, 4, DefaultOptions())
	counts := map[int32]int{}
	total := 0
	for i := 0; i < 50; i++ {
		b := g.NextBatch(64)
		for _, ix := range b.Bags[0].Indices {
			counts[ix]++
			total++
		}
	}
	// Zipf access: the most popular row should absorb far more than the
	// uniform share (total / 10000).
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	uniformShare := float64(total) / 10000
	if float64(max) < 20*uniformShare {
		t.Errorf("access pattern not skewed: max %d vs uniform share %v", max, uniformShare)
	}
}

func TestLabelsAreLearnable(t *testing.T) {
	// The planted teacher must make labels predictable: training a
	// student on generated data should reduce NE below 1.
	cfg := genConfig()
	g := NewGenerator(cfg, 5, DefaultOptions())
	m := core.NewModel(cfg, xrand.New(6))
	tr := core.NewTrainer(m, core.TrainerConfig{Optimizer: core.OptAdagrad, LR: 0.05})
	for i := 0; i < 400; i++ {
		tr.Step(g.NextBatch(64))
	}
	eval := core.Evaluate(m, g.EvalSet(10, 64))
	if math.IsNaN(eval.NE) {
		t.Fatal("NE is NaN — degenerate labels")
	}
	if eval.NE >= 1.0 {
		t.Errorf("student NE %v >= 1; labels carry no learnable signal", eval.NE)
	}
}

// TestGeneratorForkSharesTask: two forks of one generator are learnable
// by a single model interchangeably (shared teacher).
func TestGeneratorForkSharesTask(t *testing.T) {
	base := NewGenerator(genConfig(), 21, DefaultOptions())
	// Labels from both forks must have similar base rates (same task).
	rate := func(g *Generator) float64 {
		pos, n := 0.0, 0.0
		for i := 0; i < 10; i++ {
			for _, y := range g.NextBatch(128).Labels {
				n++
				if y > 0.5 {
					pos++
				}
			}
		}
		return pos / n
	}
	ra, rb := rate(base.Fork(1)), rate(base.Fork(2))
	if diff := ra - rb; diff > 0.1 || diff < -0.1 {
		t.Errorf("forked generators disagree on base rate: %v vs %v", ra, rb)
	}
}

func TestEvalSet(t *testing.T) {
	g := NewGenerator(genConfig(), 7, DefaultOptions())
	set := g.EvalSet(3, 16)
	if len(set) != 3 {
		t.Fatalf("EvalSet len = %d", len(set))
	}
	for _, b := range set {
		if b.Batch() != 16 {
			t.Errorf("eval batch size %d", b.Batch())
		}
	}
}

// TestNextBatchIntoDetachesDedup: refilling a recycled batch that carried
// dedup views (e.g. one produced by an ingest pipeline) must invalidate
// them — the views describe the old bags, and training through a stale
// unique/remap mapping would corrupt labels and gradients silently.
func TestNextBatchIntoDetachesDedup(t *testing.T) {
	cfg := genConfig()
	g := NewGenerator(cfg, 55, DefaultOptions())
	mb := g.NextBatch(16)
	mb.AttachDedup()
	if mb.DedupFor(0) == nil {
		t.Fatal("AttachDedup did not build a view")
	}
	mb = g.NextBatchInto(16, mb)
	for i := range mb.Bags {
		if mb.DedupFor(i) != nil {
			t.Fatalf("refilled batch still exposes a dedup view for bag %d", i)
		}
	}
	// Re-attaching after refill must be valid for the new bags.
	mb.AttachDedup()
	for i := range mb.Bags {
		d := mb.DedupFor(i)
		for k, ix := range mb.Bags[i].Indices {
			if d.Unique[d.Remap[k]] != ix {
				t.Fatalf("bag %d: rebuilt view inconsistent at %d", i, k)
			}
		}
	}
}

// TestWriteShardsDeterministic: two generators with equal seeds must
// materialize bit-identical datasets — every shard file and the manifest.
func TestWriteShardsDeterministic(t *testing.T) {
	cfg := genConfig()
	dirs := [2]string{t.TempDir(), t.TempDir()}
	for i, dir := range dirs {
		g := NewGenerator(cfg, 77, DefaultOptions())
		if err := g.WriteShards(dir, 3, 40); err != nil {
			t.Fatalf("WriteShards run %d: %v", i, err)
		}
	}
	entries, err := os.ReadDir(dirs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 { // 3 shards + manifest
		t.Fatalf("dataset has %d files, want 4", len(entries))
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(dirs[0], e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dirs[1], e.Name()))
		if err != nil {
			t.Fatalf("second run missing %s: %v", e.Name(), err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs between equal-seed runs", e.Name())
		}
	}
	// A different seed must produce a different dataset.
	dir3 := t.TempDir()
	g := NewGenerator(cfg, 78, DefaultOptions())
	if err := g.WriteShards(dir3, 3, 40); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dirs[0], "shard-00000.rsd"))
	b, _ := os.ReadFile(filepath.Join(dir3, "shard-00000.rsd"))
	if bytes.Equal(a, b) {
		t.Fatal("different seeds wrote identical shards")
	}
}
