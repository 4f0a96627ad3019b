package train_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/telemetry"
	"repro/internal/train"
	"repro/internal/xrand"
)

func testCfg() core.Config {
	return core.Config{
		Name:          "train-test",
		DenseFeatures: 8,
		Sparse:        core.UniformSparse(4, 300, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{16},
		TopMLP:        []int{16},
		Interaction:   core.DotProduct,
	}
}

const batch = 32

// trainer is what the table needs beyond the seam: the checkpointable
// state, to compare runs bit for bit.
type trainer interface {
	train.Stepper
	CkptState() *ckpt.ModelState
}

// rig builds trainers of one table entry and keeps the live one, the way
// a train.Run caller does through its Build closure.
type rig struct {
	ranks int // 0: core.Trainer; n: hybrid.Trainer over n ranks
	opt   core.OptimizerKind
	live  trainer
	close func()
	// failAt, when >= 0, aborts the step at that iter once, on whichever
	// (re)built trainer reaches it — a fault schedule for any trainer.
	failAt int
}

var errBoom = errors.New("injected step abort")

type faulty struct {
	trainer
	r *rig
}

func (f faulty) StepBatch(b *core.MiniBatch) (float64, error) {
	if f.Iter() == f.r.failAt {
		f.r.failAt = -1
		return 0, errBoom
	}
	return f.trainer.StepBatch(b)
}

func (r *rig) build() (train.Stepper, error) {
	r.release()
	if r.ranks == 0 {
		r.live = core.NewTrainer(core.NewModel(testCfg(), xrand.New(3)),
			core.TrainerConfig{Optimizer: r.opt, LR: 0.05})
	} else {
		ht, err := hybrid.New(testCfg(), hybrid.Config{Ranks: r.ranks, LR: 0.05, Seed: 3, Optimizer: r.opt})
		if err != nil {
			return nil, err
		}
		r.live, r.close = ht, ht.Close
	}
	return faulty{r.live, r}, nil
}

func (r *rig) release() {
	if r.close != nil {
		r.close()
		r.close = nil
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

func sameBits(t *testing.T, what string, got, want [][]float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d state slices, want %d", what, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Float32bits(got[i][j]) != math.Float32bits(want[i][j]) {
				t.Fatalf("%s: slice %d element %d is %v, want %v", what, i, j, got[i][j], want[i][j])
			}
		}
	}
}

func sameLosses(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d losses, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: loss %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// tailSource yields full batches, then one batch of tail examples, then
// io.EOF, counting what comes back.
type tailSource struct {
	gen      *data.Generator
	full     int
	tail     int // < 0: no tail batch
	recycled int
}

func (s *tailSource) NextBatch() (*core.MiniBatch, error) {
	if s.full > 0 {
		s.full--
		return s.gen.NextBatch(batch), nil
	}
	if s.tail >= 0 {
		n := s.tail
		s.tail = -1
		return s.gen.NextBatch(n), nil
	}
	return nil, io.EOF
}

func (s *tailSource) Recycle(*core.MiniBatch) { s.recycled++ }

func openStore(t *testing.T) *ckpt.Store {
	t.Helper()
	store, err := ckpt.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// TestRunTable drives the one run loop over every trainer it sits under:
// the single-process trainer and the hybrid trainer at 1 and 2 ranks,
// under SGD and AdaGrad.
func TestRunTable(t *testing.T) {
	const steps, cut, every = 18, 12, 6
	for _, ranks := range []int{0, 1, 2} {
		for _, opt := range []core.OptimizerKind{core.OptSGD, core.OptAdagrad} {
			name := fmt.Sprintf("hybrid%d-%s", ranks, opt)
			if ranks == 0 {
				name = fmt.Sprintf("core-%s", opt)
			}
			t.Run(name, func(t *testing.T) {
				r := &rig{ranks: ranks, opt: opt, failAt: -1}
				defer r.release()
				run := func(store *ckpt.Store, n int) *train.Result {
					t.Helper()
					res, err := train.Run(train.Config{
						Build: r.build, Steps: n,
						Source: data.ReplaySource(testCfg(), 7, data.DefaultOptions(), batch),
						Store:  store, CkptEvery: every, FullEvery: 2,
						Logf: t.Logf,
					})
					if err != nil {
						t.Fatal(err)
					}
					if res.Steps != n {
						t.Fatalf("ran %d steps, want %d", res.Steps, n)
					}
					return res
				}

				// Reference: one uninterrupted run.
				clean := run(openStore(t), steps)
				if clean.Start != 0 || clean.Recoveries != 0 || clean.Saves != steps/every {
					t.Fatalf("clean run: start %d, %d recoveries, %d saves", clean.Start, clean.Recoveries, clean.Saves)
				}
				want := stateBits(r.live.CkptState())

				// (a) Run to the cut, drop the trainer, build a fresh one
				// on the same store: it resumes at the cut and ends on the
				// reference's losses and state.
				store := openStore(t)
				head := run(store, cut)
				sameLosses(t, "head", head.Losses, clean.Losses[:cut])
				r.release()
				tail := run(store, steps-cut)
				if tail.Start != cut || tail.BytesRestored == 0 {
					t.Fatalf("resumed at step %d having read %d bytes, want step %d", tail.Start, tail.BytesRestored, cut)
				}
				sameLosses(t, "resumed", tail.Losses, clean.Losses[cut:])
				sameBits(t, "resumed", stateBits(r.live.CkptState()), want)
				if err := store.Verify(); err != nil {
					t.Fatalf("store verify after resume: %v", err)
				}

				// (b) A finite stream ends the run early: short count, no
				// error. (c) Its tail batch, one example short of a step,
				// is recycled and skipped.
				for _, tc := range []struct{ tail, batches int }{{-1, 5}, {r.live.Ranks() - 1, 6}} {
					src := &tailSource{gen: data.NewGenerator(testCfg(), 7, data.DefaultOptions()), full: 5, tail: tc.tail}
					res, err := train.Run(train.Config{
						Build: r.build, Steps: 100,
						Source: func(int) (core.BatchSource, func(), error) { return src, func() {}, nil },
					})
					if err != nil {
						t.Fatalf("finite stream (tail %d): %v", tc.tail, err)
					}
					if res.Steps != 5 || r.live.Iter() != 5 {
						t.Fatalf("finite stream (tail %d): %d steps, trainer at %d, want 5", tc.tail, res.Steps, r.live.Iter())
					}
					if src.recycled != tc.batches {
						t.Fatalf("finite stream (tail %d): %d batches recycled, want %d", tc.tail, src.recycled, tc.batches)
					}
					sameLosses(t, "finite", res.Losses[:5], clean.Losses[:5])
				}

				// (d) A step error without a store is returned as is...
				r.failAt = 4
				res, err := train.Run(train.Config{
					Build: r.build, Steps: steps,
					Source: data.ReplaySource(testCfg(), 7, data.DefaultOptions(), batch),
				})
				if err != errBoom || res.Steps != 4 {
					t.Fatalf("storeless abort: err %v after %d steps, want errBoom after 4", err, res.Steps)
				}
				// ...and with one the run rolls back, replays, and ends
				// where the reference did.
				r.failAt = every + 3
				rec := run(openStore(t), steps)
				if rec.Recoveries != 1 || rec.BytesRestored == 0 {
					t.Fatalf("recovered %d times reading %d bytes, want 1 recovery", rec.Recoveries, rec.BytesRestored)
				}
				sameLosses(t, "recovered", rec.Losses, clean.Losses)
				sameBits(t, "recovered", stateBits(r.live.CkptState()), want)
			})
		}
	}
}

// pinnedRoots are the Merkle roots of the checkpoints TestSaveRootsPinned
// writes, recorded when saves still ran synchronously on the training
// goroutine (and again when the data generator's ids moved to the
// shared Zipf table, which trains different bits). Moving the writer
// must not change one byte of a checkpoint.
var pinnedRoots = map[string]string{
	"ck-00000010-full":  "8c62f44338aa05faa03f5a2bc4f79be403f50122c70e261210eeeb391bc40f0b",
	"ck-00000020-delta": "07c9e181c6bd52f01ebd0637ba747a4df5d53771e45d895c50d2e0df57bb19c0",
	"ck-00000030-delta": "15505912426b35db892944e47692108c24a141f6cf4f763c2dfb239f7266570f",
	"ck-00000040-full":  "5c3587bc34ef22347e0e011d9c873d499c81481227dbec4727d1bcec94c756ff",
	"ck-00000050-delta": "cadbe0913ecbae260d765a4ae934363ceeb2d4a7247733c9b97488cb155f59e2",
	"ck-00000060-delta": "191aaac1bb882754523e29973c9a745a459081f6a36d81b9a5d68009206e3692",
}

// TestSaveRootsPinned runs a fixed small core trainer that checkpoints
// every 10 steps with a full compaction every third save and reads each
// checkpoint's root back from its manifest on disk as it publishes: a
// full compaction removes the checkpoints before it, so at the end the
// store holds only the live chain.
func TestSaveRootsPinned(t *testing.T) {
	dir := t.TempDir()
	store, err := ckpt.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{opt: core.OptAdagrad, failAt: -1}
	got := map[string]string{}
	var readErr error
	res, err := train.Run(train.Config{
		Build: r.build, Steps: 60,
		Source: data.ReplaySource(testCfg(), 7, data.DefaultOptions(), batch),
		Store:  store, CkptEvery: 10, FullEvery: 3,
		OnStep: func(step int, _ float64) {
			if (step+1)%10 != 0 || readErr != nil {
				return
			}
			var name string
			if name, _, readErr = store.Latest(); readErr != nil {
				return
			}
			var js []byte
			if js, readErr = os.ReadFile(filepath.Join(dir, name, "MANIFEST.json")); readErr != nil {
				return
			}
			var man ckpt.Manifest
			readErr = json.Unmarshal(js, &man)
			got[name] = man.Root
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if readErr != nil {
		t.Fatal(readErr)
	}
	if len(got) != len(pinnedRoots) {
		t.Fatalf("saw %d checkpoints, want %d", len(got), len(pinnedRoots))
	}
	for name, want := range pinnedRoots {
		if got[name] != want {
			t.Errorf("%s has root %q, want %q", name, got[name], want)
		}
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := "ck-00000040-full ck-00000050-delta ck-00000060-delta"; strings.Join(names, " ") != want {
		t.Errorf("store holds %v, want the live chain %s", names, want)
	}
	if res.LastRoot != got[names[len(names)-1]] {
		t.Errorf("Result.LastRoot %q, tip manifest root %q", res.LastRoot, got[names[len(names)-1]])
	}
}

// TestFullEveryZeroAlwaysFull holds Run to Config.FullEvery's documented
// 0, "always full": a checkpoint every 10 steps over 40 steps writes four
// full checkpoints and no delta. Each full supersedes the one before, so
// only the last is left on disk.
func TestFullEveryZeroAlwaysFull(t *testing.T) {
	reg := telemetry.NewRegistry()
	store, err := ckpt.OpenStoreWith(t.TempDir(), reg, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{opt: core.OptAdagrad, failAt: -1}
	if _, err := train.Run(train.Config{
		Build: r.build, Steps: 40,
		Source: data.ReplaySource(testCfg(), 7, data.DefaultOptions(), batch),
		Store:  store, CkptEvery: 10, FullEvery: 0,
	}); err != nil {
		t.Fatal(err)
	}
	if saves, fulls := reg.Counter("ckpt/saves").Load(), reg.Counter("ckpt/full_saves").Load(); saves != 4 || fulls != 4 {
		t.Fatalf("%d saves, %d of them full; want 4 full", saves, fulls)
	}
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "ck-00000040-full" {
		t.Fatalf("store holds %v, want only ck-00000040-full", names)
	}
}
