package hybrid

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/embedding"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/xrand"
)

func testCfg() core.Config {
	return core.Config{
		Name:          "hybrid-test",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(8, 1000, 4),
		EmbeddingDim:  8,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   core.DotProduct,
	}
}

// tableBits deep-copies every table's master weights.
func tableBits(tables []*embedding.Table) [][]float32 {
	out := make([][]float32, len(tables))
	for i, tab := range tables {
		out[i] = append([]float32(nil), tab.Weights.Data...)
	}
	return out
}

// singleLosses trains the single-process reference trainer on the same
// seed/workload and records per-step losses, plus the table weights as
// the first step left them.
func singleLosses(t *testing.T, cfg core.Config, opt core.OptimizerKind, steps, batch int) ([]float64, [][]float32) {
	t.Helper()
	m := core.NewModel(cfg, xrand.New(1))
	tr := core.NewTrainer(m, core.TrainerConfig{Optimizer: opt, LR: 0.05})
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	losses := make([]float64, steps)
	var first [][]float32
	for i := range losses {
		losses[i] = tr.Step(gen.NextBatch(batch))
		if i == 0 {
			first = tableBits(m.Tables)
		}
	}
	return losses, first
}

func hybridLosses(t *testing.T, cfg core.Config, hc Config, steps, batch int) []float64 {
	t.Helper()
	ht, err := New(cfg, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	losses := make([]float64, steps)
	for i := range losses {
		losses[i], _, _ = ht.Step(gen.NextBatch(batch))
	}
	return losses
}

// TestMatchesSingleProcess is the engine's core acceptance criterion: for
// the same seed and workload, the synchronous hybrid trainer's loss curve
// must match the single-process core.Trainer within float tolerance, for
// 1, 2, and 4 ranks under AdaGrad and 1 and 2 ranks under SGD. Sparse
// updates are bit-identical by construction — pinned on the first step,
// before the dense replicas (whose gradients differ by ring summation
// order) have diverged: every table must hold the single-process bits.
func TestMatchesSingleProcess(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 30, 64
	for _, tc := range []struct {
		opt   core.OptimizerKind
		ranks []int
	}{{core.OptAdagrad, []int{1, 2, 4}}, {core.OptSGD, []int{1, 2}}} {
		ref, refTables := singleLosses(t, cfg, tc.opt, steps, batch)
		for _, ranks := range tc.ranks {
			hc := Config{Ranks: ranks, Seed: 1, LR: 0.05, Optimizer: tc.opt}
			got := hybridLosses(t, cfg, hc, steps, batch)
			var worst float64
			for i := range ref {
				if d := math.Abs(got[i] - ref[i]); d > worst {
					worst = d
				}
			}
			if worst > 5e-3 {
				t.Errorf("%s ranks=%d: max per-step loss deviation %v from single-process run", tc.opt, ranks, worst)
			}
			if d := math.Abs(got[0] - ref[0]); d > 1e-6 {
				t.Errorf("%s ranks=%d: first-step loss off by %v (forward pass should be near-exact)", tc.opt, ranks, d)
			}

			ht, err := New(cfg, hc)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ht.Step(data.NewGenerator(cfg, 7, data.DefaultOptions()).NextBatch(batch)); err != nil {
				t.Fatal(err)
			}
			for ti, want := range refTables {
				for i, w := range ht.tables[ti].Weights.Data {
					if math.Float32bits(w) != math.Float32bits(want[i]) {
						t.Fatalf("%s ranks=%d: table %d element %d = %v after step 1, single-process %v",
							tc.opt, ranks, ti, i, w, want[i])
					}
				}
			}
			ht.Close()
		}
	}
}

// TestDeterministicAndOverlapInvariant checks that a fixed seed yields a
// bit-identical loss trajectory across runs, and that overlapping the
// dense all-reduce with the sparse path changes timing only, not math.
func TestDeterministicAndOverlapInvariant(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 12, 32
	base := hybridLosses(t, cfg, Config{Ranks: 3, Seed: 5, LR: 0.05}, steps, batch)
	again := hybridLosses(t, cfg, Config{Ranks: 3, Seed: 5, LR: 0.05}, steps, batch)
	overlapped := hybridLosses(t, cfg, Config{Ranks: 3, Seed: 5, LR: 0.05, Overlap: true}, steps, batch)
	for i := range base {
		if base[i] != again[i] {
			t.Fatalf("step %d: reruns diverge (%v vs %v)", i, base[i], again[i])
		}
		if base[i] != overlapped[i] {
			t.Fatalf("step %d: overlap changed the math (%v vs %v)", i, base[i], overlapped[i])
		}
	}
}

// TestRankSpansTileStep: with overlap off and on, each rank shard's
// interior phase spans sum to its step spans to the nanosecond, because
// one clock reading marks every phase boundary.
func TestRankSpansTileStep(t *testing.T) {
	cfg := testCfg()
	const steps = 20
	for _, overlap := range []bool{false, true} {
		hc := Config{Ranks: 2, Seed: 1, LR: 0.05, Overlap: overlap}
		hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
		ht, err := New(cfg, hc)
		if err != nil {
			t.Fatal(err)
		}
		gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
		for i := 0; i < steps; i++ {
			if _, _, err := ht.Step(gen.NextBatch(64)); err != nil {
				t.Fatal(err)
			}
		}
		ht.Close()
		a := telemetry.Attribute(hc.Trace.Snapshot())
		if len(a.Shards) != hc.Ranks {
			t.Fatalf("overlap=%v: %d step shards, want %d", overlap, len(a.Shards), hc.Ranks)
		}
		for _, sa := range a.Shards {
			if sa.Steps != steps || sa.Coverage() != 1 {
				t.Errorf("overlap=%v %s: %d steps, phases cover %.6f of %d ns",
					overlap, sa.Name, sa.Steps, sa.Coverage(), sa.StepNS)
			}
		}
	}
}

// hybridLossesDedup trains with the RecD dedup view attached to every
// batch (the internal/ingest pipeline's arrangement).
func hybridLossesDedup(t *testing.T, cfg core.Config, hc Config, steps, batch int) []float64 {
	t.Helper()
	ht, err := New(cfg, hc)
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	losses := make([]float64, steps)
	for i := range losses {
		b := gen.NextBatch(batch)
		b.AttachDedup()
		losses[i], _, _ = ht.Step(b)
	}
	return losses
}

// TestDedupBitIdenticalAcrossRanks is the RecD acceptance criterion:
// training with within-batch dedup on must produce a bit-identical loss
// curve to dedup off, for 1-, 2-, and 4-rank hybrid training — the dedup
// changes the work (unique-row gathers, dense unique-grad accumulation),
// never the math.
func TestDedupBitIdenticalAcrossRanks(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 20, 64
	for _, ranks := range []int{1, 2, 4} {
		hc := Config{Ranks: ranks, Seed: 3, LR: 0.05, Overlap: ranks > 1}
		off := hybridLosses(t, cfg, hc, steps, batch)
		on := hybridLossesDedup(t, cfg, hc, steps, batch)
		for i := range off {
			if off[i] != on[i] {
				t.Fatalf("ranks=%d step %d: dedup changed the loss (%v vs %v)",
					ranks, i, on[i], off[i])
			}
		}
	}
}

// TestDedupBitIdenticalSingleTrainer covers the single-process trainer's
// dedup path the same way.
func TestDedupBitIdenticalSingleTrainer(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 20, 64
	run := func(dedup bool) []float64 {
		m := core.NewModel(cfg, xrand.New(1))
		tr := core.NewTrainer(m, core.TrainerConfig{Optimizer: core.OptAdagrad, LR: 0.05})
		gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
		losses := make([]float64, steps)
		for i := range losses {
			b := gen.NextBatch(batch)
			if dedup {
				b.AttachDedup()
			}
			losses[i] = tr.Step(b)
		}
		return losses
	}
	off, on := run(false), run(true)
	for i := range off {
		if off[i] != on[i] {
			t.Fatalf("step %d: dedup changed the loss (%v vs %v)", i, on[i], off[i])
		}
	}
}

// tailSource emits full batches followed by one sub-rank tail batch,
// then io.EOF — the shape a finite ingest stream ends with.
type tailSource struct {
	gen     *data.Generator
	full    int // full batches remaining
	tail    int // tail batch size (< ranks)
	emitted bool
}

func (s *tailSource) NextBatch() (*core.MiniBatch, error) {
	if s.full > 0 {
		s.full--
		return s.gen.NextBatch(32), nil
	}
	if !s.emitted {
		s.emitted = true
		return s.gen.NextBatch(s.tail), nil
	}
	return nil, io.EOF
}

func (s *tailSource) Recycle(*core.MiniBatch) {}

// TestSpanSkipsSubRankTail: a finite stream whose final partial batch is
// smaller than the rank count must be skipped, not panic the synchronous
// step.
func TestSpanSkipsSubRankTail(t *testing.T) {
	cfg := testCfg()
	ht, err := New(cfg, Config{Ranks: 4, Seed: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	src := &tailSource{gen: data.NewGenerator(cfg, 7, data.DefaultOptions()), full: 3, tail: 2}
	loss, steps, err := train.Span(ht, src, 100)
	if err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Fatalf("trained %d steps, want 3 full batches (tail skipped)", steps)
	}
	if math.IsNaN(loss) || loss <= 0 {
		t.Fatalf("degenerate mean loss %v", loss)
	}
}

// TestBreakdownBytes pins the per-step collective meters to the exact
// exchange volumes of a balanced shard: the pooled all-to-all moves
// 2·B·S·d·4·(n-1)/n bytes and the ring all-reduce 2·(n-1)·denseBytes.
func TestBreakdownBytes(t *testing.T) {
	cfg := testCfg()
	const ranks, batch = 4, 64
	ht, err := New(cfg, Config{Ranks: ranks, Seed: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	_, bd, _ := ht.Step(gen.NextBatch(batch))

	d := cfg.EmbeddingDim
	s := cfg.NumSparse()
	wantA2A := int64(2 * batch * s * d * 4 * (ranks - 1) / ranks)
	if bd.AllToAllBytes != wantA2A {
		t.Errorf("all-to-all bytes %d, want %d", bd.AllToAllBytes, wantA2A)
	}
	wantAR := 2 * int64(ranks-1) * cfg.DenseParamBytes()
	if bd.AllReduceBytes != wantAR {
		t.Errorf("all-reduce bytes %d, want %d", bd.AllReduceBytes, wantAR)
	}
	if bd.Step <= 0 || bd.Compute < 0 || bd.Exposed < 0 {
		t.Errorf("degenerate breakdown: %+v", bd)
	}
	if bd.Exposed > bd.Step {
		t.Errorf("exposed comm %v exceeds step time %v", bd.Exposed, bd.Step)
	}
}

// TestUnevenBatchAndFewTables exercises a batch that does not divide by
// the rank count and more ranks than some tables' shards.
func TestUnevenBatchAndFewTables(t *testing.T) {
	cfg := testCfg()
	cfg.Sparse = core.UniformSparse(3, 500, 3) // fewer tables than ranks
	ht, err := New(cfg, Config{Ranks: 4, Seed: 2, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 11, data.DefaultOptions())
	for i := 0; i < 5; i++ {
		loss, _, _ := ht.Step(gen.NextBatch(13))
		if math.IsNaN(loss) || math.IsInf(loss, 0) {
			t.Fatalf("step %d: loss %v", i, loss)
		}
	}
	// Batch sizes may change between steps; arenas must follow.
	if loss, _, _ := ht.Step(gen.NextBatch(32)); math.IsNaN(loss) {
		t.Fatal("resized batch produced NaN")
	}
}

// TestEvalModelLearns trains for a while and checks the assembled eval
// view (rank-0 dense replica + sharded tables) beats the base rate.
func TestEvalModelLearns(t *testing.T) {
	cfg := testCfg()
	ht, err := New(cfg, Config{Ranks: 2, Seed: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	var first, last float64
	const steps = 100
	for i := 0; i < steps; i++ {
		loss, _, _ := ht.Step(gen.NextBatch(64))
		if i < 10 {
			first += loss
		}
		if i >= steps-10 {
			last += loss
		}
	}
	if last >= first {
		t.Errorf("loss did not improve: %v -> %v", first/10, last/10)
	}
	res := core.Evaluate(ht.EvalModel(), gen.Fork(999).EvalSet(4, 128))
	if !(res.NE < 1.0) {
		t.Errorf("NE %v, want < 1 (better than base rate)", res.NE)
	}
}

// TestStepSteadyStateAllocs checks the per-rank arenas are reused: after
// warmup a fixed-size step performs zero heap allocations. AllocsPerRun
// averages in whole allocations, so a one-off runtime cost (goroutine
// stack growth, timer pages) inside the window does not count.
func TestStepSteadyStateAllocs(t *testing.T) {
	cfg := testCfg()
	ht, err := New(cfg, Config{Ranks: 2, Seed: 1, LR: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	batch := gen.NextBatch(64)
	for i := 0; i < 5; i++ {
		ht.Step(batch)
	}
	if avg := testing.AllocsPerRun(20, func() { ht.Step(batch) }); avg != 0 {
		t.Errorf("hybrid step allocates %.1f objects at steady state, want 0", avg)
	}
}

// TestConfigErrors covers constructor validation.
func TestConfigErrors(t *testing.T) {
	if _, err := New(core.Config{}, Config{}); err == nil {
		t.Error("invalid model config accepted")
	}
	if _, err := New(testCfg(), Config{Ranks: -1}); err == nil {
		t.Error("negative rank count accepted")
	}
	if _, err := New(testCfg(), Config{Optimizer: "momentum"}); err == nil {
		t.Error("unknown optimizer accepted")
	}
}

// TestTableParallelBitIdentical is core's test of the same name for two
// hybrid ranks: each rank owns two tables whose global-batch phases cost
// ~200k apiece, so at 2 and 4 Ps both ranks hand their tables to the
// pool. Against the inline loop over plain batches (GOMAXPROCS 1), runs
// with dedup views on every other batch must leave the same losses,
// dense replicas, table rows, accumulators and dirty sets, bit for bit,
// for fp32 and bf16 tables.
func TestTableParallelBitIdentical(t *testing.T) {
	cfg := testCfg()
	cfg.Sparse = core.UniformSparse(4, 1500, 60)
	for i := range cfg.Sparse {
		cfg.Sparse[i].MaxPooled = 96
	}
	cfg.EmbeddingDim = 40
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	plain, mixed := make([]*core.MiniBatch, 50), make([]*core.MiniBatch, 50)
	for i := range plain {
		plain[i] = gen.NextBatch(128)
		mixed[i] = &core.MiniBatch{Dense: plain[i].Dense, Bags: plain[i].Bags, Labels: plain[i].Labels}
		if i%2 == 1 {
			mixed[i].AttachDedup()
		}
	}

	type trained struct {
		losses []float64
		state  [][]float32
		dirty  string
	}
	run := func(procs int, dt tensor.DType, batches []*core.MiniBatch) trained {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cfg := cfg
		cfg.TableDType = dt
		ht, err := New(cfg, Config{Ranks: 2, Seed: 3, LR: 0.05, Overlap: true})
		if err != nil {
			t.Fatal(err)
		}
		defer ht.Close()
		var out trained
		for step, b := range batches {
			for _, r := range ht.ranks {
				var work int
				for _, ti := range r.owned {
					work += len(b.Bags[ti].Indices) * cfg.EmbeddingDim
				}
				if got := tensor.RangeFansOut(len(r.owned), work/len(r.owned)); got != (procs > 1) {
					t.Fatalf("GOMAXPROCS %d step %d rank %d: fans out = %v", procs, step, r.id, got)
				}
			}
			loss, _, err := ht.Step(b)
			if err != nil {
				t.Fatal(err)
			}
			out.losses = append(out.losses, loss)
		}
		out.state = stateBits(ht.CkptState())
		var touched [][]int32
		for _, d := range ht.DirtyRows() {
			var rows []int32
			d.ForEach(func(r int32) { rows = append(rows, r) })
			touched = append(touched, rows)
		}
		out.dirty = fmt.Sprint(touched)
		return out
	}

	for _, dt := range []tensor.DType{tensor.FP32, tensor.BF16} {
		want := run(1, dt, plain)
		for _, procs := range []int{1, 2, 4} {
			got := run(procs, dt, mixed)
			for i := range want.losses {
				if got.losses[i] != want.losses[i] {
					t.Fatalf("%v GOMAXPROCS %d: step %d loss %v, inline %v", dt, procs, i, got.losses[i], want.losses[i])
				}
			}
			for i := range want.state {
				for k := range want.state[i] {
					if math.Float32bits(got.state[i][k]) != math.Float32bits(want.state[i][k]) {
						t.Fatalf("%v GOMAXPROCS %d: state %d element %d = %v, inline %v",
							dt, procs, i, k, got.state[i][k], want.state[i][k])
					}
				}
			}
			if got.dirty != want.dirty {
				t.Fatalf("%v GOMAXPROCS %d: dirty sets differ from the inline run", dt, procs)
			}
		}
	}
}
