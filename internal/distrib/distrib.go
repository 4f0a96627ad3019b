// Package distrib implements the paper's distributed training pipeline
// (Fig 4) as a real, in-process system: trainer goroutines run Hogwild!
// threads over shared model replicas, a dense parameter server performs
// Elastic-Averaging SGD exchanges, and embedding tables are sharded
// table-wise across sparse parameter-server shards that meter every byte
// crossing the (simulated) wire.
//
// Gradients, models, and updates are all real — this is the substrate for
// the paper's model-quality experiments at distributed scale, and its
// byte meters tie the analytic cost model to observed traffic.
package distrib

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// DensePS is the master copy of the MLP parameters. Trainers exchange
// with it using the symmetric EASGD rule under a mutex (the production
// system's "center" parameters).
type DensePS struct {
	mu     sync.Mutex
	center []nn.Param
	bytes  atomic.Int64
	syncs  atomic.Int64
}

// NewDensePS snapshots the given model's dense parameters as the center.
func NewDensePS(m *core.Model) *DensePS {
	c := m.Clone()
	return &DensePS{center: c.DenseParams()}
}

// Sync performs one elastic exchange between worker parameters and the
// center, accounting the wire traffic (parameters down + up).
func (ps *DensePS) Sync(worker []nn.Param, alpha float32) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	optim.EASGDSyncParams(worker, ps.center, alpha)
	var n int64
	for _, p := range worker {
		n += int64(len(p.Value)) * 4
	}
	ps.bytes.Add(2 * n)
	ps.syncs.Add(1)
}

// Center returns the center parameter list (for evaluation snapshots).
func (ps *DensePS) Center() []nn.Param { return ps.center }

// BytesTransferred returns cumulative EASGD wire bytes.
func (ps *DensePS) BytesTransferred() int64 { return ps.bytes.Load() }

// Syncs returns the number of elastic exchanges served.
func (ps *DensePS) Syncs() int64 { return ps.syncs.Load() }

// SparsePS is one shard of the sharded sparse parameter servers: its
// sparse step owns a subset of the embedding tables and applies row-wise
// AdaGrad to the gradients Hogwild workers scatter in their own arenas
// and push here, lock-free.
type SparsePS struct {
	Shard  int
	tables map[int]*embedding.Table // feature index -> owned table
	step   *core.SparseStep
	bytes  atomic.Int64
	reqs   atomic.Int64
}

// table returns feature f's table; the wrong shard is a routing bug.
func (ps *SparsePS) table(f int) *embedding.Table {
	t, ok := ps.tables[f]
	if !ok {
		panic(fmt.Sprintf("distrib: shard %d does not own feature %d", ps.Shard, f))
	}
	return t
}

// Lookup pools the bag for feature f into out and meters response bytes.
func (ps *SparsePS) Lookup(f int, bag embedding.Bag, out *tensor.Matrix) {
	ps.table(f).Forward(bag, out)
	ps.bytes.Add(int64(len(bag.Indices))*4 + int64(out.Rows*out.Cols)*4)
	ps.reqs.Add(1)
}

// ApplyGrad applies a sparse gradient to the shard's table and meters
// request bytes.
func (ps *SparsePS) ApplyGrad(f int, sg *embedding.SparseGrad) {
	ps.table(f)
	ps.step.ApplyTable(f, sg, 1)
	ps.bytes.Add(int64(sg.NumRows()) * int64(sg.Dim+1) * 4)
	ps.reqs.Add(1)
}

// BytesTransferred returns cumulative wire bytes served by the shard.
func (ps *SparsePS) BytesTransferred() int64 { return ps.bytes.Load() }

// Requests returns the number of lookup/update RPCs served.
func (ps *SparsePS) Requests() int64 { return ps.reqs.Load() }

// Cluster is a full distributed training deployment.
type Cluster struct {
	Cfg      core.Config
	DensePS  *DensePS
	SparsePS []*SparsePS
	// owner[f] is the shard owning feature f.
	owner []int

	reference *core.Model // architecture template for worker replicas
}

// ClusterConfig sizes a deployment.
type ClusterConfig struct {
	Trainers   int
	SparsePS   int
	Hogwild    int // Hogwild! threads per trainer
	BatchSize  int
	LR         float64
	SparseLR   float64
	EASGDAlpha float64
	// EASGDPeriod is the number of iterations between elastic syncs.
	EASGDPeriod int
}

// Defaults fills unset fields with the paper's common choices.
func (c *ClusterConfig) Defaults() {
	if c.Trainers == 0 {
		c.Trainers = 2
	}
	if c.SparsePS == 0 {
		c.SparsePS = 2
	}
	if c.Hogwild == 0 {
		c.Hogwild = 1
	}
	if c.BatchSize == 0 {
		c.BatchSize = 100
	}
	if c.LR == 0 {
		c.LR = 0.05
	}
	if c.SparseLR == 0 {
		c.SparseLR = c.LR
	}
	if c.EASGDAlpha == 0 {
		c.EASGDAlpha = 0.3
	}
	if c.EASGDPeriod == 0 {
		c.EASGDPeriod = 4
	}
}

// NewCluster builds the deployment: a reference model, the dense center,
// and table-wise sharded sparse parameter servers balanced by size and
// access (the §III-A2 greedy partitioner).
func NewCluster(cfg core.Config, cc ClusterConfig, seed int64) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cc.Defaults()
	rng := xrand.New(seed)
	ref := core.NewModel(cfg, rng)

	cl := &Cluster{Cfg: cfg, reference: ref}
	cl.DensePS = NewDensePS(ref)

	owner, owned := cfg.ShardTables(cc.SparsePS)
	cl.owner = owner
	lr := float32(cc.SparseLR)
	for i, feats := range owned {
		ps := &SparsePS{Shard: i, tables: map[int]*embedding.Table{}}
		opts := make([]optim.Sparse, len(feats))
		for oi, f := range feats {
			ps.tables[f] = ref.Tables[f]
			opts[oi] = optim.NewRowWiseAdagrad(ref.Tables[f], lr)
		}
		ps.step = core.NewSparseStep(ref.Tables, feats, opts, lr)
		cl.SparsePS = append(cl.SparsePS, ps)
	}
	return cl, nil
}

// Owner returns the shard index owning feature f.
func (cl *Cluster) Owner(f int) int { return cl.owner[f] }

// TrainResult summarizes one distributed training run.
type TrainResult struct {
	Examples    int64
	MeanLoss    float64
	DenseBytes  int64
	SparseBytes int64
}

// Train runs the full pipeline: cc.Trainers trainer goroutines, each with
// cc.Hogwild Hogwild! threads, consuming iters mini-batches per thread
// from per-thread generators, doing remote-style lookups against the
// sparse shards and EASGD syncs against the dense center.
func (cl *Cluster) Train(cc ClusterConfig, gen func(trainer, thread int) *data.Generator, iters int) (TrainResult, error) {
	cc.Defaults()
	if gen == nil {
		return TrainResult{}, fmt.Errorf("distrib: nil generator factory")
	}
	var examples atomic.Int64
	var lossSum, lossN atomic.Int64 // fixed-point loss accumulation (micro-units)

	var wg sync.WaitGroup
	for t := 0; t < cc.Trainers; t++ {
		// Each trainer holds a local dense replica; Hogwild threads
		// share it without locks (the paper's intra-trainer mode).
		local := cl.newWorkerModel()
		for h := 0; h < cc.Hogwild; h++ {
			wg.Add(1)
			go func(t, h int) {
				defer wg.Done()
				worker := local.ShareWeights()
				g := gen(t, h)
				opt := optim.NewSGD(worker.DenseParams(), float32(cc.LR))
				// Per-worker arena: one recycled MiniBatch and one
				// gradient buffer per Hogwild thread (the scatter arenas
				// live in the worker model's sparse step), so the
				// steady-state loop stops churning the heap.
				var batch *core.MiniBatch
				grad := make([]float32, cc.BatchSize)
				for it := 0; it < iters; it++ {
					batch = g.NextBatchInto(cc.BatchSize, batch)
					loss := cl.step(worker, opt, batch, grad)
					examples.Add(int64(cc.BatchSize))
					lossSum.Add(int64(loss * 1e6))
					lossN.Add(1)
					if h == 0 && (it+1)%cc.EASGDPeriod == 0 {
						cl.DensePS.Sync(local.DenseParams(), float32(cc.EASGDAlpha))
					}
				}
			}(t, h)
		}
	}
	wg.Wait()

	res := TrainResult{
		Examples:   examples.Load(),
		DenseBytes: cl.DensePS.BytesTransferred(),
	}
	for _, ps := range cl.SparsePS {
		res.SparseBytes += ps.BytesTransferred()
	}
	if n := lossN.Load(); n > 0 {
		res.MeanLoss = float64(lossSum.Load()) / 1e6 / float64(n)
	}
	return res, nil
}

// newWorkerModel creates a trainer-local model: private dense parameters
// initialized from the center, shared (remote) embedding tables.
func (cl *Cluster) newWorkerModel() *core.Model {
	// Embedding rows stay remote/shared.
	return core.AssembleModel(cl.Cfg, cl.reference.Bottom.Clone(), cl.reference.Top.Clone(), cl.reference.Tables)
}

// step runs forward/backward on the worker, routing pooled lookups and
// gradient pushes through the owning shards. Because the worker model
// shares table storage with the shards, Forward reads the same rows the
// shard would serve; the shard's meters account the would-be wire bytes.
func (cl *Cluster) step(worker *core.Model, opt *optim.SGD, b *core.MiniBatch, grad []float32) float64 {
	// Meter the lookups on the owning shards.
	for f, bag := range b.Bags {
		ps := cl.SparsePS[cl.owner[f]]
		ps.bytes.Add(int64(len(bag.Indices))*4 + int64(bag.Batch()*worker.Cfg.EmbeddingDim)*4)
		ps.reqs.Add(1)
	}
	loss := nn.BCEWithLogits(worker.Forward(b), b.Labels, grad)
	worker.ZeroGrad()
	sparse := worker.Backward(grad)
	opt.Step()
	for f, sg := range sparse {
		cl.SparsePS[cl.owner[f]].ApplyGrad(f, sg)
	}
	return loss
}

// EvalModel materializes a model holding the center dense parameters and
// the shard tables, for held-out evaluation.
func (cl *Cluster) EvalModel() *core.Model {
	m := cl.newWorkerModel()
	dst := m.DenseParams()
	src := cl.DensePS.Center()
	for i := range dst {
		copy(dst[i].Value, src[i].Value)
	}
	return m
}
