package hybrid

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/train"
)

func runElastic(t *testing.T, cfg core.Config, ranks, steps, batch int, faults string) *train.Result {
	t.Helper()
	return runElasticOpt(t, cfg, core.OptAdagrad, ranks, steps, batch, faults)
}

func runElasticOpt(t *testing.T, cfg core.Config, opt core.OptimizerKind, ranks, steps, batch int, faults string) *train.Result {
	t.Helper()
	fs, err := collective.ParseFaultSchedule(faults)
	if err != nil {
		t.Fatal(err)
	}
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunElastic(ElasticConfig{
		Cfg:       cfg,
		HC:        Config{Ranks: ranks, LR: 0.05, Optimizer: opt},
		Store:     store,
		CkptEvery: 6,
		FullEvery: 2,
		Steps:     steps,
		Source:    data.ReplaySource(cfg, 7, data.DefaultOptions(), batch),
		Faults:    fs,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatalf("RunElastic(ranks=%d, faults=%q): %v", ranks, faults, err)
	}
	if res.Steps != steps {
		t.Fatalf("ran %d steps, want %d", res.Steps, steps)
	}
	if err := store.Verify(); err != nil {
		t.Fatalf("store verify after run: %v", err)
	}
	return res
}

// TestKillRestoreRejoinBitIdentical is the PR's acceptance criterion: a
// training run struck by a rank kill mid-step must — after rollback to
// the last durable checkpoint, world rebuild, and replay — produce a
// loss curve bit-identical to the uninterrupted run, for 1, 2, and 4
// ranks under AdaGrad and 2 ranks under SGD.
func TestKillRestoreRejoinBitIdentical(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 24, 32
	for _, tc := range []struct {
		opt   core.OptimizerKind
		ranks int
	}{{core.OptAdagrad, 1}, {core.OptAdagrad, 2}, {core.OptAdagrad, 4}, {core.OptSGD, 2}} {
		opt, ranks := tc.opt, tc.ranks
		t.Run(fmt.Sprintf("%s-ranks%d", opt, ranks), func(t *testing.T) {
			clean := runElasticOpt(t, cfg, opt, ranks, steps, batch, "")
			if clean.Recoveries != 0 {
				t.Fatalf("clean run recovered %d times", clean.Recoveries)
			}
			// Kill the highest rank three steps past the step-12 checkpoint.
			kill := fmt.Sprintf("kill:%d@15", ranks-1)
			faulted := runElasticOpt(t, cfg, opt, ranks, steps, batch, kill)
			if faulted.Recoveries != 1 {
				t.Fatalf("faulted run recovered %d times, want 1", faulted.Recoveries)
			}
			if faulted.BytesRestored == 0 {
				t.Fatal("recovery restored zero bytes")
			}
			for i := range clean.Losses {
				if clean.Losses[i] != faulted.Losses[i] {
					t.Fatalf("step %d: loss %v (clean) != %v (kill/restore/rejoin)",
						i, clean.Losses[i], faulted.Losses[i])
				}
			}
		})
	}
}

// TestElasticEarlyKill covers a fault striking before any checkpoint
// exists: recovery restarts from the seed and the curve still matches.
func TestElasticEarlyKill(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 12, 32
	clean := runElastic(t, cfg, 2, steps, batch, "")
	faulted := runElastic(t, cfg, 2, steps, batch, "kill:1@3")
	if faulted.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", faulted.Recoveries)
	}
	if faulted.BytesRestored != 0 {
		t.Fatalf("pre-checkpoint recovery restored %d bytes, want 0 (cold restart)", faulted.BytesRestored)
	}
	for i := range clean.Losses {
		if clean.Losses[i] != faulted.Losses[i] {
			t.Fatalf("step %d: loss mismatch after cold-restart recovery", i)
		}
	}
}

// TestElasticMultipleFaults survives two separate kills, each rolling
// back to a different checkpoint.
func TestElasticMultipleFaults(t *testing.T) {
	cfg := testCfg()
	const steps, batch = 24, 32
	clean := runElastic(t, cfg, 2, steps, batch, "")
	faulted := runElastic(t, cfg, 2, steps, batch, "kill:0@8,kill:1@20")
	if faulted.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", faulted.Recoveries)
	}
	for i := range clean.Losses {
		if clean.Losses[i] != faulted.Losses[i] {
			t.Fatalf("step %d: loss mismatch after double fault", i)
		}
	}
}

// stateBits deep-copies everything a checkpoint captures, in a fixed
// order: dense params, dense accumulators, table weights, row
// accumulators.
func stateBits(st *ckpt.ModelState) [][]float32 {
	out := append([][]float32{}, st.Dense...)
	out = append(out, st.DenseAccum...)
	for _, tab := range st.Tables {
		out = append(out, tab.Weights.Data)
	}
	out = append(out, st.SparseAccum...)
	for i, s := range out {
		out[i] = append([]float32(nil), s...)
	}
	return out
}

// TestElasticRankRejoinElastic restores a 4-rank checkpoint into a
// 2-rank world: shards are keyed by table, not rank, so a resize
// re-shards deterministically, the restored state is the saved state bit
// for bit, and training proceeds from it. Under SGD there is no
// optimizer state to carry, and the exported view must say so.
func TestElasticRankRejoinElastic(t *testing.T) {
	for _, opt := range []core.OptimizerKind{core.OptAdagrad, core.OptSGD} {
		t.Run(string(opt), func(t *testing.T) {
			cfg := testCfg()
			const batch = 32
			store, err := ckpt.OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}

			// Train 8 steps on 4 ranks and checkpoint.
			ht4, err := New(cfg, Config{Ranks: 4, LR: 0.05, Optimizer: opt})
			if err != nil {
				t.Fatal(err)
			}
			gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
			for i := 0; i < 8; i++ {
				if _, _, err := ht4.Step(gen.NextBatch(batch)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := ht4.SaveCheckpoint(store, 0); err != nil {
				t.Fatal(err)
			}
			saved := ht4.CkptState()
			if sgd := opt == core.OptSGD; (saved.DenseAccum == nil) != sgd || (saved.SparseAccum == nil) != sgd {
				t.Fatalf("%s: DenseAccum nil=%v SparseAccum nil=%v", opt, saved.DenseAccum == nil, saved.SparseAccum == nil)
			}
			want := stateBits(saved)
			ht4.Close()

			// Rejoin with 2 ranks from the same checkpoint.
			ht2, err := New(cfg, Config{Ranks: 2, LR: 0.05, Optimizer: opt})
			if err != nil {
				t.Fatal(err)
			}
			defer ht2.Close()
			info, err := ht2.RestoreCheckpoint(store)
			if err != nil {
				t.Fatalf("restore into resized world: %v", err)
			}
			if info.Step != 8 || ht2.Iter() != 8 {
				t.Fatalf("restored step = %d/%d, want 8", info.Step, ht2.Iter())
			}
			got := stateBits(ht2.CkptState())
			if len(got) != len(want) {
				t.Fatalf("restored state has %d slices, saved %d", len(got), len(want))
			}
			for i := range want {
				for j := range want[i] {
					if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
						t.Fatalf("slice %d element %d restored as %v, saved %v", i, j, got[i][j], want[i][j])
					}
				}
			}
			loss, _, err := ht2.Step(gen.NextBatch(batch))
			if err != nil {
				t.Fatal(err)
			}
			if loss <= 0 || loss != loss {
				t.Fatalf("post-resize step loss = %v", loss)
			}
		})
	}
}

// TestSaveRefusedOnFailedTrainer pins the torn-state guard: after an
// abort the trainer must refuse to checkpoint.
func TestSaveRefusedOnFailedTrainer(t *testing.T) {
	cfg := testCfg()
	fs, err := collective.ParseFaultSchedule("fail:0@2")
	if err != nil {
		t.Fatal(err)
	}
	ht, err := New(cfg, Config{Ranks: 2, LR: 0.05, Optimizer: core.OptAdagrad})
	if err != nil {
		t.Fatal(err)
	}
	defer ht.Close()
	if err := ht.SetFaults(fs); err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(cfg, 7, data.DefaultOptions())
	var stepErr error
	for i := 0; i < 4 && stepErr == nil; i++ {
		_, _, stepErr = ht.Step(gen.NextBatch(32))
	}
	if stepErr == nil {
		t.Fatal("fault never fired")
	}
	var re *collective.RankError
	if !errors.As(stepErr, &re) || re.Rank != 0 {
		t.Fatalf("step error = %v, want RankError on rank 0", stepErr)
	}
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ht.SaveCheckpoint(store, 0); err == nil || !strings.Contains(err.Error(), "refusing") {
		t.Fatalf("SaveCheckpoint on failed trainer = %v, want refusal", err)
	}
	if _, err := ht.RestoreCheckpoint(store); err == nil || !strings.Contains(err.Error(), "failed trainer") {
		t.Fatalf("RestoreCheckpoint on failed trainer = %v, want refusal", err)
	}
}
