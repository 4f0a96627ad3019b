package distrib

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/tensor"
)

func clusterCfg() core.Config {
	return core.Config{
		Name:          "distrib-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 200, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.DotProduct,
	}
}

func newTestCluster(t *testing.T, cc ClusterConfig) *Cluster {
	t.Helper()
	cl, err := NewCluster(clusterCfg(), cc, 1)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

// genFactory forks one base generator so every trainer thread sees the
// same planted label function on an independent feature stream.
func genFactory(cfg core.Config) func(int, int) *data.Generator {
	base := data.NewGenerator(cfg, 7, data.DefaultOptions())
	return func(trainer, thread int) *data.Generator {
		return base.Fork(100 + int64(trainer*10+thread))
	}
}

func TestClusterShardsCoverAllTables(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{SparsePS: 3})
	owned := map[int]bool{}
	for _, ps := range cl.SparsePS {
		for f := range ps.tables {
			if owned[f] {
				t.Fatalf("feature %d owned by two shards", f)
			}
			owned[f] = true
			if cl.Owner(f) != ps.Shard {
				t.Fatalf("owner map disagrees for feature %d", f)
			}
		}
	}
	cfg := clusterCfg()
	if len(owned) != cfg.NumSparse() {
		t.Fatalf("only %d features owned", len(owned))
	}
}

func TestSparsePSLookupAndMetering(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{SparsePS: 2})
	f := 0
	ps := cl.SparsePS[cl.Owner(f)]
	bag := embedding.NewBag([][]int32{{1, 2}, {3}})
	out := tensor.New(2, clusterCfg().EmbeddingDim)
	ps.Lookup(f, bag, out)
	if ps.Requests() != 1 {
		t.Errorf("Requests = %d", ps.Requests())
	}
	wantBytes := int64(3*4 + 2*8*4)
	if ps.BytesTransferred() != wantBytes {
		t.Errorf("BytesTransferred = %d, want %d", ps.BytesTransferred(), wantBytes)
	}
}

func TestSparsePSPanicsOnWrongShard(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{SparsePS: 2})
	f := 0
	wrong := cl.SparsePS[(cl.Owner(f)+1)%2]
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	wrong.Lookup(f, embedding.NewBag([][]int32{{1}}), tensor.New(1, 8))
}

func TestTrainRunsAndAccountsTraffic(t *testing.T) {
	cc := ClusterConfig{Trainers: 2, SparsePS: 2, Hogwild: 2, BatchSize: 32, EASGDPeriod: 2}
	if raceDetectorEnabled {
		// Hogwild threads share dense parameters and trainers share
		// sparse shards without locks on purpose (the paper's
		// asynchronous modes); a serial configuration keeps the
		// pipeline and accounting covered without tripping -race.
		cc.Trainers, cc.Hogwild = 1, 1
	}
	cl := newTestCluster(t, cc)
	res, err := cl.Train(cc, genFactory(clusterCfg()), 10)
	if err != nil {
		t.Fatalf("Train: %v", err)
	}
	want := int64(cc.Trainers * cc.Hogwild * 10 * 32)
	if res.Examples != want {
		t.Errorf("Examples = %d, want %d", res.Examples, want)
	}
	if res.DenseBytes <= 0 || res.SparseBytes <= 0 {
		t.Errorf("traffic accounting: dense %d sparse %d", res.DenseBytes, res.SparseBytes)
	}
	if cl.DensePS.Syncs() == 0 {
		t.Error("EASGD syncs never happened")
	}
	if res.MeanLoss <= 0 {
		t.Errorf("MeanLoss = %v", res.MeanLoss)
	}
}

func TestTrainNilGenerator(t *testing.T) {
	cc := ClusterConfig{}
	cl := newTestCluster(t, cc)
	if _, err := cl.Train(cc, nil, 1); err == nil {
		t.Error("nil generator accepted")
	}
}

// TestDistributedConvergence: the distributed cluster must learn the
// planted task — center-model NE below 1 after training.
func TestDistributedConvergence(t *testing.T) {
	cfg := clusterCfg()
	cc := ClusterConfig{Trainers: 2, SparsePS: 2, Hogwild: 1, BatchSize: 64,
		LR: 0.1, EASGDPeriod: 4, EASGDAlpha: 0.4}
	if raceDetectorEnabled {
		// Trainers update shared sparse shards without locks on purpose
		// (asynchronous PS mode); serial still tests convergence.
		cc.Trainers = 1
	}
	cl, err := NewCluster(cfg, cc, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Train(cc, genFactory(cfg), 500); err != nil {
		t.Fatal(err)
	}
	eval := cl.EvalModel()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions()).Fork(999)
	res := core.Evaluate(eval, gen.EvalSet(10, 64))
	if res.NE >= 1.0 {
		t.Errorf("distributed training did not learn: NE = %v", res.NE)
	}
}

// TestEASGDKeepsWorkersNearCenter: after many syncs the center must have
// moved away from initialization (it absorbs worker progress).
func TestEASGDCenterMoves(t *testing.T) {
	cfg := clusterCfg()
	cc := ClusterConfig{Trainers: 2, SparsePS: 1, BatchSize: 32, EASGDPeriod: 2}
	if raceDetectorEnabled {
		cc.Trainers = 1 // see TestDistributedConvergence
	}
	cl, err := NewCluster(cfg, cc, 3)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]float32, len(cl.DensePS.Center()[0].Value))
	copy(before, cl.DensePS.Center()[0].Value)
	if _, err := cl.Train(cc, genFactory(cfg), 30); err != nil {
		t.Fatal(err)
	}
	after := cl.DensePS.Center()[0].Value
	moved := false
	for i := range before {
		if before[i] != after[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("center parameters never moved")
	}
}

func TestMoreTrainersProcessMoreExamples(t *testing.T) {
	if raceDetectorEnabled {
		// Inherently multi-trainer over lock-free shared shards (the
		// paper's asynchronous mode); meaningless to serialize.
		t.Skip("intentional Hogwild-style races; run without -race")
	}
	cfg := clusterCfg()
	run := func(trainers int) int64 {
		cc := ClusterConfig{Trainers: trainers, SparsePS: 2, BatchSize: 16}
		cl, err := NewCluster(cfg, cc, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cl.Train(cc, genFactory(cfg), 5)
		if err != nil {
			t.Fatal(err)
		}
		return res.Examples
	}
	if run(4) != 2*run(2) {
		t.Error("examples must scale linearly with trainers")
	}
}

func TestNewClusterRejectsInvalidConfig(t *testing.T) {
	bad := clusterCfg()
	bad.EmbeddingDim = 0
	if _, err := NewCluster(bad, ClusterConfig{}, 5); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestWorkerModelSharesTablesOnly(t *testing.T) {
	cl := newTestCluster(t, ClusterConfig{})
	w1 := cl.newWorkerModel()
	w2 := cl.newWorkerModel()
	// Tables shared with the shards.
	if &w1.Tables[0].Weights.Data[0] != &cl.reference.Tables[0].Weights.Data[0] {
		t.Error("worker tables must alias shard tables")
	}
	// Dense replicas private.
	w1.DenseParams()[0].Value[0] = 42
	if w2.DenseParams()[0].Value[0] == 42 {
		t.Error("worker dense replicas must be private")
	}
}
