package ckpt

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// testState builds a small synthetic trainer state: 3 tables with
// row-wise accumulators, 2 dense params with Adagrad accumulators.
func testState(seed int64) *ModelState {
	rng := xrand.New(seed)
	st := &ModelState{
		Step:      0,
		Optimizer: "adagrad",
		Ranks:     2,
		Owner:     []int{0, 1, 0},
	}
	for i, rows := range []int{64, 100, 37} {
		tab := embedding.NewTable("t", rows, 4, rng)
		st.Tables = append(st.Tables, tab)
		acc := make([]float32, rows)
		for j := range acc {
			acc[j] = rng.Float32()
		}
		st.SparseAccum = append(st.SparseAccum, acc)
		_ = i
	}
	for _, n := range []int{48, 9} {
		p := make([]float32, n)
		a := make([]float32, n)
		for j := range p {
			p[j] = rng.Float32()
			a[j] = rng.Float32()
		}
		st.Dense = append(st.Dense, p)
		st.DenseAccum = append(st.DenseAccum, a)
	}
	return st
}

// snapshot deep-copies the state's numeric content for later comparison.
func snapshot(st *ModelState) [][]float32 {
	var out [][]float32
	for _, p := range st.Dense {
		out = append(out, append([]float32(nil), p...))
	}
	for _, a := range st.DenseAccum {
		out = append(out, append([]float32(nil), a...))
	}
	for _, t := range st.Tables {
		out = append(out, append([]float32(nil), t.Weights.Data...))
	}
	for _, a := range st.SparseAccum {
		out = append(out, append([]float32(nil), a...))
	}
	return out
}

func assertEqualSnapshot(t *testing.T, want [][]float32, st *ModelState) {
	t.Helper()
	got := snapshot(st)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d slices, want %d", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("slice %d has %d floats, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("slice %d element %d = %v, want %v (bit-exact)", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// scramble overwrites all state values so a restore must rewrite them.
func scramble(st *ModelState) {
	for _, p := range st.Dense {
		for i := range p {
			p[i] = -999
		}
	}
	for _, a := range st.DenseAccum {
		for i := range a {
			a[i] = -999
		}
	}
	for _, tab := range st.Tables {
		tab.Weights.Fill(-999)
	}
	for _, a := range st.SparseAccum {
		for i := range a {
			a[i] = -999
		}
	}
	st.Step = -1
}

// mutate perturbs a deterministic subset of rows and marks them dirty.
func mutate(st *ModelState, dirty []*Dirty, salt float32) {
	for ti, tab := range st.Tables {
		ids := []int32{1, int32(ti + 2), int32(tab.HashSize - 1)}
		for _, id := range ids {
			row := tab.Weights.Row(int(id))
			for k := range row {
				row[k] += salt * float32(ti+1)
			}
			st.SparseAccum[ti][id] += salt
		}
		dirty[ti].Mark(ids)
	}
	for pi, p := range st.Dense {
		for i := range p {
			p[i] += salt * float32(pi+1) * 0.01
		}
		for i := range st.DenseAccum[pi] {
			st.DenseAccum[pi][i] += salt * 0.001
		}
	}
}

func newDirtySet(st *ModelState) []*Dirty {
	var ds []*Dirty
	for _, tab := range st.Tables {
		ds = append(ds, NewDirty(tab.HashSize))
	}
	return ds
}

func TestDirtyBitmap(t *testing.T) {
	d := NewDirty(130)
	if d.Count() != 0 {
		t.Fatalf("fresh tracker: count=%d", d.Count())
	}
	d.Mark([]int32{5, 64, 129, 5, 0})
	if d.Count() != 4 {
		t.Fatalf("count=%d, want 4 (duplicate must not double-count)", d.Count())
	}
	var seen []int32
	d.ForEach(func(row int32) { seen = append(seen, row) })
	want := []int32{0, 5, 64, 129}
	if len(seen) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach visited %v, want ascending %v", seen, want)
		}
	}
	d.Reset()
	if d.Count() != 0 {
		t.Fatalf("count=%d after Reset", d.Count())
	}
	all := make([]int32, 130)
	for i := range all {
		all[i] = int32(i)
	}
	d.Mark(all)
	if d.Count() != 130 {
		t.Fatalf("count=%d after marking every row, want 130", d.Count())
	}
	n := 0
	d.ForEach(func(row int32) {
		if int(row) != n {
			t.Fatalf("full-table iteration hit %d at position %d", row, n)
		}
		n++
	})
	if n != 130 {
		t.Fatalf("full-table iteration visited %d rows, want 130", n)
	}
}

func TestDirtyMarkNoAllocs(t *testing.T) {
	d := NewDirty(4096)
	ids := []int32{1, 77, 2048, 4095}
	allocs := testing.AllocsPerRun(100, func() {
		d.Mark(ids)
		d.Reset()
	})
	if allocs != 0 {
		t.Fatalf("Dirty.Mark+Reset allocates %.1f/op, want 0", allocs)
	}
}

func TestFullSaveRestoreRoundTrip(t *testing.T) {
	st := testState(1)
	st.Step = 42
	want := snapshot(st)

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.AutoSave(st, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != KindFull || info.Step != 42 || info.Files != 4 {
		t.Fatalf("unexpected save info %+v", info)
	}

	scramble(st)
	rinfo, err := store.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Chain != 1 || rinfo.Step != 42 || st.Step != 42 {
		t.Fatalf("unexpected restore info %+v (st.Step=%d)", rinfo, st.Step)
	}
	if rinfo.Bytes != info.Bytes {
		t.Fatalf("restored %d bytes, saved %d", rinfo.Bytes, info.Bytes)
	}
	assertEqualSnapshot(t, want, st)
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaChainRestore(t *testing.T) {
	st := testState(2)
	dirty := newDirtySet(st)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	st.Step = 10
	if _, err := store.AutoSave(st, dirty, 1); err != nil {
		t.Fatal(err)
	}
	mutate(st, dirty, 0.5)
	st.Step = 20
	d1, err := store.AutoSave(st, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d1.Kind != KindDelta || d1.Rows != 9 {
		t.Fatalf("unexpected delta info %+v (want 9 rows over 3 tables)", d1)
	}
	for _, d := range dirty {
		if d.Count() != 0 {
			t.Fatalf("dirty tracker not reset after save")
		}
	}
	mutate(st, dirty, -0.25)
	st.Step = 30
	if _, err := store.AutoSave(st, dirty, 0); err != nil {
		t.Fatal(err)
	}
	want := snapshot(st)

	scramble(st)
	rinfo, err := store.Restore(st)
	if err != nil {
		t.Fatal(err)
	}
	if rinfo.Chain != 3 || st.Step != 30 {
		t.Fatalf("restore chain=%d step=%d, want chain 3 at step 30", rinfo.Chain, st.Step)
	}
	assertEqualSnapshot(t, want, st)
}

// TestSecondSaveAtSameStepRefused: a delta saved twice at one step used
// to name itself as its own base and replace the real link, after which
// Restore and Verify both failed on the pinned base root. The second save
// must be refused before touching disk, naming the existing checkpoint,
// and the store must still restore bit-exactly.
func TestSecondSaveAtSameStepRefused(t *testing.T) {
	st := testState(11)
	dirty := newDirtySet(st)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Step = 10
	if _, err := store.AutoSave(st, dirty, 1); err != nil {
		t.Fatal(err)
	}
	mutate(st, dirty, 0.5)
	st.Step = 20
	first, err := store.AutoSave(st, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := snapshot(st)
	before, err := store.List()
	if err != nil {
		t.Fatal(err)
	}

	mutate(st, dirty, 0.25) // the refused save must not consume these marks
	for _, fullEvery := range []int{0, 1} {
		if _, err := store.AutoSave(st, dirty, fullEvery); err == nil || !strings.Contains(err.Error(), first.Name) {
			t.Fatalf("second save at step 20 = %v, want an error naming %s", err, first.Name)
		}
	}
	for ti, d := range dirty {
		if d.Count() == 0 {
			t.Fatalf("refused save reset dirty tracker %d", ti)
		}
	}
	after, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("refused save changed the store: %v -> %v", before, after)
	}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(des) != len(before) {
		t.Fatalf("refused save left %d entries on disk, want %d", len(des), len(before))
	}
	if err := store.Verify(); err != nil {
		t.Fatalf("verify after refused save: %v", err)
	}
	scramble(st)
	if _, err := store.Restore(st); err != nil {
		t.Fatalf("restore after refused save: %v", err)
	}
	if st.Step != 20 {
		t.Fatalf("restored step %d, want 20", st.Step)
	}
	assertEqualSnapshot(t, want, st)
}

// TestDeltaCompactionRootEquivalence pins the acceptance property: a
// full checkpoint written from a state rebuilt off a delta chain has the
// same Merkle root as a full checkpoint written from the live state —
// delta restore is bit-identical, and serialization is deterministic.
func TestDeltaCompactionRootEquivalence(t *testing.T) {
	live := testState(3)
	dirty := newDirtySet(live)
	chainStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live.Step = 5
	if _, err := chainStore.AutoSave(live, dirty, 1); err != nil {
		t.Fatal(err)
	}
	mutate(live, dirty, 1.25)
	live.Step = 6
	if _, err := chainStore.AutoSave(live, dirty, 0); err != nil {
		t.Fatal(err)
	}
	mutate(live, dirty, 0.75)
	live.Step = 7
	if _, err := chainStore.AutoSave(live, dirty, 0); err != nil {
		t.Fatal(err)
	}

	// Full checkpoint from the live state.
	liveStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := liveStore.AutoSave(live, nil, 1); err != nil {
		t.Fatal(err)
	}

	// Rebuild a second state from the chain, then compact it to a full
	// checkpoint in a third store.
	rebuilt := testState(3)
	scramble(rebuilt)
	if _, err := chainStore.Restore(rebuilt); err != nil {
		t.Fatal(err)
	}
	rebuiltStore, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rebuiltStore.AutoSave(rebuilt, nil, 1); err != nil {
		t.Fatal(err)
	}

	if liveRoot, rebuiltRoot := tipRoot(t, liveStore), tipRoot(t, rebuiltStore); liveRoot != rebuiltRoot {
		t.Fatalf("compacted root %s != live root %s: delta chain is not bit-identical",
			rebuiltRoot, liveRoot)
	}
}

// tipRoot waits for the store's last write and returns the Merkle root
// its tip manifest on disk records, failing on an empty one.
func tipRoot(t *testing.T, store *Store) string {
	t.Helper()
	name, man, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || len(man.Root) != 64 {
		t.Fatalf("tip %q has no Merkle root", name)
	}
	return man.Root
}

func TestAutoSavePolicy(t *testing.T) {
	st := testState(4)
	dirty := newDirtySet(st)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := []string{KindFull, KindDelta, KindDelta, KindFull, KindDelta}
	for i, want := range wantKinds {
		mutate(st, dirty, float32(i)+0.125)
		st.Step = i * 10
		info, err := store.AutoSave(st, dirty, 3)
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != want {
			t.Fatalf("save %d: kind %s, want %s (fullEvery=3 compaction)", i, info.Kind, want)
		}
	}
	// The second full (step 30) superseded the first chain.
	names, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{ckName(30, KindFull), ckName(40, KindDelta)}; strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("store lists %v, want the live chain %v", names, want)
	}
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUntouchedTableSkippedInDelta(t *testing.T) {
	st := testState(5)
	dirty := newDirtySet(st)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AutoSave(st, dirty, 1); err != nil {
		t.Fatal(err)
	}
	// Touch only table 1.
	dirty[1].Mark([]int32{3})
	st.Tables[1].Weights.Row(3)[0] += 9
	st.Step = 1
	info, err := store.AutoSave(st, dirty, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.Files != 2 { // dense.bin + table-0001.delta
		t.Fatalf("delta wrote %d files, want 2 (untouched tables skipped)", info.Files)
	}
	want := snapshot(st)
	scramble(st)
	if _, err := store.Restore(st); err != nil {
		t.Fatal(err)
	}
	assertEqualSnapshot(t, want, st)
}

func TestCorruptionDetection(t *testing.T) {
	setup := func(t *testing.T) (*Store, string, *ModelState) {
		st := testState(6)
		dirty := newDirtySet(st)
		dir := t.TempDir()
		store, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Step = 3
		if _, err := store.AutoSave(st, dirty, 1); err != nil {
			t.Fatal(err)
		}
		mutate(st, dirty, 0.5)
		st.Step = 4
		if _, err := store.AutoSave(st, dirty, 0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.Latest(); err != nil { // the shards are on disk
			t.Fatal(err)
		}
		return store, dir, st
	}

	t.Run("FlippedByteInShard", func(t *testing.T) {
		store, dir, st := setup(t)
		shard := filepath.Join(dir, ckName(3, KindFull), "table-0001.full")
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(shard, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = store.Restore(st)
		if err == nil {
			t.Fatal("restore succeeded on a corrupted shard")
		}
		if !strings.Contains(err.Error(), "table-0001.full") {
			t.Fatalf("error does not name the offending shard: %v", err)
		}
		if !strings.Contains(err.Error(), "content verification") {
			t.Fatalf("error does not identify hash mismatch: %v", err)
		}
		if store.Verify() == nil {
			t.Fatal("Verify passed on a corrupted store")
		}
	})

	t.Run("TruncatedShard", func(t *testing.T) {
		store, dir, st := setup(t)
		shard := filepath.Join(dir, ckName(4, KindDelta), "dense.bin")
		raw, err := os.ReadFile(shard)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(shard, raw[:len(raw)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = store.Restore(st)
		if err == nil {
			t.Fatal("restore succeeded on a truncated shard")
		}
		if !strings.Contains(err.Error(), "dense.bin") {
			t.Fatalf("error does not name the offending shard: %v", err)
		}
	})

	t.Run("TamperedManifestEntry", func(t *testing.T) {
		store, dir, st := setup(t)
		manPath := filepath.Join(dir, ckName(4, KindDelta), manifestName)
		js, err := os.ReadFile(manPath)
		if err != nil {
			t.Fatal(err)
		}
		// Change one hex digit of the first entry hash; the manifest
		// root no longer matches, so the tamper is caught before any
		// shard is read.
		tampered := strings.Replace(string(js), `"sha256": "`, `"sha256": "0`, 1)
		tampered = strings.Replace(tampered, `0"`, `"`, 1) // keep length stable-ish
		if tampered == string(js) {
			t.Fatal("tamper did not change the manifest")
		}
		if err := os.WriteFile(manPath, []byte(tampered), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = store.Restore(st)
		if err == nil {
			t.Fatal("restore accepted a tampered manifest")
		}
		if !strings.Contains(err.Error(), "Merkle") {
			t.Fatalf("error does not identify Merkle mismatch: %v", err)
		}
	})

	t.Run("SwappedBase", func(t *testing.T) {
		store, dir, st := setup(t)
		// Rewrite the base (full) checkpoint in place from a different
		// state: its manifest self-verifies, but its root no longer
		// matches the delta's BaseRoot pin.
		other := testState(7)
		other.Step = 3
		if _, err := store.AutoSave(other, nil, 1); err != nil {
			t.Fatal(err)
		}
		_ = dir
		_, err := store.RestoreFrom(ckName(4, KindDelta), st)
		if err == nil {
			t.Fatal("restore accepted a delta whose base was swapped out")
		}
		if !strings.Contains(err.Error(), "pins base root") {
			t.Fatalf("error does not identify the broken chain pin: %v", err)
		}
	})
}

func TestFingerprintMismatch(t *testing.T) {
	st := testState(8)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AutoSave(st, nil, 1); err != nil {
		t.Fatal(err)
	}

	other := testState(8)
	other.Optimizer = "sgd"
	other.DenseAccum = nil
	other.SparseAccum = nil
	if _, err := store.Restore(other); err == nil {
		t.Fatal("restore accepted a checkpoint from a different optimizer")
	}

	shapeChanged := testState(8)
	shapeChanged.Tables = shapeChanged.Tables[:2]
	shapeChanged.SparseAccum = shapeChanged.SparseAccum[:2]
	if _, err := store.Restore(shapeChanged); err == nil {
		t.Fatal("restore accepted a checkpoint with mismatched table count")
	}
}

func TestRestoreEmptyStore(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := testState(9)
	if _, err := store.Restore(st); err != ErrNoCheckpoint {
		t.Fatalf("restore on empty store: %v, want ErrNoCheckpoint", err)
	}
	name, man, err := store.Latest()
	if err != nil || name != "" || man != nil {
		t.Fatalf("Latest on empty store: %q %v %v", name, man, err)
	}
}

func TestIncompleteCheckpointIgnored(t *testing.T) {
	st := testState(10)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.Step = 1
	if _, err := store.AutoSave(st, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a later checkpoint directory with
	// shards but no manifest must be invisible.
	crashed := filepath.Join(dir, ckName(2, KindFull))
	if err := os.MkdirAll(crashed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(crashed, "dense.bin"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	name, _, err := store.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if name != ckName(1, KindFull) {
		t.Fatalf("Latest = %s, want the completed %s", name, ckName(1, KindFull))
	}
}

// mkCheckpointDir creates a directory in the store, with a manifest file
// when complete. List reads no manifest, so its content does not matter.
func mkCheckpointDir(t testing.TB, dir, name string, complete bool) {
	t.Helper()
	if err := os.MkdirAll(filepath.Join(dir, name), 0o755); err != nil {
		t.Fatal(err)
	}
	if complete {
		if err := os.WriteFile(filepath.Join(dir, name, manifestName), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestListOrder pins List: completed checkpoints only, ascending by step,
// a full sorting after the delta at its step; unpublished temp dirs,
// manifest-less dirs, unknown kinds, stray names and plain files are
// skipped.
func TestListOrder(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		ckName(40, KindFull), ckName(7, KindDelta), ckName(120, KindDelta),
		ckName(40, KindDelta), ckName(3, KindFull), ckName(100, KindFull),
		ckName(200, KindFull) + ".tmp", "ck-00000050-partial", "ck-x-full", "notes",
	} {
		mkCheckpointDir(t, dir, name, true)
	}
	mkCheckpointDir(t, dir, ckName(300, KindFull), false)
	if err := os.WriteFile(filepath.Join(dir, ckName(9, KindFull)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := store.List()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		ckName(3, KindFull), ckName(7, KindDelta), ckName(40, KindDelta),
		ckName(40, KindFull), ckName(100, KindFull), ckName(120, KindDelta),
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("List = %v, want %v", got, want)
	}
}

// BenchmarkStoreList lists a store of 400 completed checkpoints, the
// size a run that checkpoints often and never prunes reaches.
func BenchmarkStoreList(b *testing.B) {
	dir := b.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for step := 1; step <= 400; step++ {
		kind := KindDelta
		if step%10 == 0 {
			kind = KindFull
		}
		mkCheckpointDir(b, dir, ckName(step, kind), true)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := store.List(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestStoreMeters(t *testing.T) {
	reg := telemetry.NewRegistry()
	trace := telemetry.NewTracer(1, 16)
	st := testState(11)
	dirty := newDirtySet(st)
	store, err := OpenStoreWith(t.TempDir(), reg, trace, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AutoSave(st, dirty, 1); err != nil {
		t.Fatal(err)
	}
	mutate(st, dirty, 0.5)
	st.Step = 1
	if _, err := store.AutoSave(st, dirty, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Restore(st); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ckpt/saves").Load(); got != 2 {
		t.Fatalf("ckpt/saves = %d, want 2", got)
	}
	if got := reg.Counter("ckpt/full_saves").Load(); got != 1 {
		t.Fatalf("ckpt/full_saves = %d, want 1", got)
	}
	if got := reg.Counter("ckpt/restores").Load(); got != 1 {
		t.Fatalf("ckpt/restores = %d, want 1", got)
	}
	if reg.Counter("ckpt/bytes_written").Load() <= 0 || reg.Counter("ckpt/bytes_restored").Load() <= 0 {
		t.Fatal("byte meters did not move")
	}
	snap := trace.Snapshot()
	var ck, rs int
	for _, sp := range snap.Spans {
		switch sp.Phase {
		case telemetry.PhaseCheckpoint:
			ck++
		case telemetry.PhaseRestore:
			rs++
		}
	}
	if ck != 2 || rs != 1 {
		t.Fatalf("trace has %d checkpoint / %d restore spans, want 2 / 1", ck, rs)
	}
}

// typedState is testState with reduced-precision tables: one bf16, one
// fp16, one fp32, all with row-wise accumulators.
func typedState(seed int64) *ModelState {
	rng := xrand.New(seed)
	st := &ModelState{
		Optimizer: "adagrad",
		Ranks:     1,
		Owner:     []int{0, 0, 0},
	}
	for i, dt := range []tensor.DType{tensor.BF16, tensor.FP16, tensor.FP32} {
		tab := embedding.NewTableTyped("t", 40+8*i, 8, dt, rng)
		st.Tables = append(st.Tables, tab)
		acc := make([]float32, tab.HashSize)
		for j := range acc {
			acc[j] = rng.Float32()
		}
		st.SparseAccum = append(st.SparseAccum, acc)
	}
	p := make([]float32, 16)
	a := make([]float32, 16)
	for j := range p {
		p[j] = rng.Float32()
		a[j] = rng.Float32()
	}
	st.Dense = append(st.Dense, p)
	st.DenseAccum = append(st.DenseAccum, a)
	return st
}

// assertReplicaSynced checks that each table's lookup path (which reads
// the reduced-precision replica) returns exactly the re-quantized fp32
// master — i.e. restore re-synced the replica.
func assertReplicaSynced(t *testing.T, st *ModelState) {
	t.Helper()
	for ti, tab := range st.Tables {
		out, sc := tensor.New(1, tab.Dim), embedding.NewScratch()
		enc := make([]uint16, tab.Dim)
		dec := make([]float32, tab.Dim)
		for _, row := range []int{0, tab.HashSize / 2, tab.HashSize - 1} {
			bag := embedding.NewBag([][]int32{{int32(row)}})
			tab.BagForwardInto(bag, out, sc)
			want := tab.Weights.Row(row)
			if tab.DType != tensor.FP32 {
				tensor.Encode(tab.DType, enc, want)
				tensor.Decode(tab.DType, dec, enc)
				want = dec
			}
			for j := range want {
				if out.Row(0)[j] != want[j] {
					t.Fatalf("table %d (%s) row %d col %d: lookup %v, master implies %v",
						ti, tab.DType, row, j, out.Row(0)[j], want[j])
				}
			}
		}
	}
}

func TestReducedPrecisionSaveRestore(t *testing.T) {
	st := typedState(11)
	st.Step = 7
	want := snapshot(st)

	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AutoSave(st, nil, 1); err != nil {
		t.Fatal(err)
	}

	// Scramble the masters AND re-sync the replicas, so a restore that
	// forgets to re-quantize leaves stale scrambled replicas behind.
	scramble(st)
	for _, tab := range st.Tables {
		tab.SyncAll()
	}
	if _, err := store.Restore(st); err != nil {
		t.Fatal(err)
	}
	assertEqualSnapshot(t, want, st)
	assertReplicaSynced(t, st)

	// Delta shards must carry and re-sync the dtype too.
	dirty := newDirtySet(st)
	rng := xrand.New(13)
	for ti, tab := range st.Tables {
		for _, row := range []int32{1, 5} {
			r := tab.Weights.Row(int(row))
			for j := range r {
				r[j] = rng.Float32()
			}
			tab.SyncRow(int(row))
			dirty[ti].Mark([]int32{row})
		}
	}
	st.Step = 8
	want = snapshot(st)
	if _, err := store.AutoSave(st, dirty, 0); err != nil {
		t.Fatal(err)
	}
	scramble(st)
	for _, tab := range st.Tables {
		tab.SyncAll()
	}
	if _, err := store.Restore(st); err != nil {
		t.Fatal(err)
	}
	assertEqualSnapshot(t, want, st)
	assertReplicaSynced(t, st)
}

func TestFingerprintDTypeMismatch(t *testing.T) {
	st := typedState(12)
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AutoSave(st, nil, 1); err != nil {
		t.Fatal(err)
	}
	other := typedState(12)
	rng := xrand.New(12)
	other.Tables[0] = embedding.NewTableTyped("t", other.Tables[0].HashSize, 8, tensor.FP32, rng)
	if _, err := store.Restore(other); err == nil {
		t.Fatal("restore accepted a checkpoint with a different table dtype")
	} else if !strings.Contains(err.Error(), "bf16") {
		t.Fatalf("dtype mismatch error should name the dtype, got: %v", err)
	}
}

// TestCyclicDeltaChainRefused: Root covers only the entries, not Base or
// BaseRoot, so a delta can name itself, or a later delta, as its base
// with a matching base_root and still pass every manifest check. Restore
// used to follow such a chain forever and Verify called the store
// healthy. Both must refuse it, and return.
func TestCyclicDeltaChainRefused(t *testing.T) {
	for _, tc := range []struct {
		name   string
		relink [][2]int // {delta step, step of the delta it is made to name as base}
	}{
		{"SelfBased", [][2]int{{30, 30}}},
		{"TwoCycle", [][2]int{{20, 30}}}, // 30 already names 20
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := testState(14)
			dirty := newDirtySet(st)
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			st.Step = 10
			if _, err := store.AutoSave(st, dirty, 1); err != nil {
				t.Fatal(err)
			}
			for _, step := range []int{20, 30} {
				mutate(st, dirty, float32(step))
				st.Step = step
				if _, err := store.AutoSave(st, dirty, 0); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, err := store.Latest(); err != nil {
				t.Fatal(err)
			}
			for _, l := range tc.relink {
				name, base := ckName(l[0], KindDelta), ckName(l[1], KindDelta)
				man, err := store.readManifest(name)
				if err != nil {
					t.Fatal(err)
				}
				baseMan, err := store.readManifest(base)
				if err != nil {
					t.Fatal(err)
				}
				man.Base, man.BaseRoot = base, baseMan.Root
				js, err := json.Marshal(man)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, name, manifestName), js, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			errs := make(chan error, 2)
			go func() {
				_, err := store.Restore(testState(14))
				errs <- err
				errs <- store.Verify()
			}()
			for _, call := range []string{"Restore", "Verify"} {
				select {
				case err := <-errs:
					if err == nil || !strings.Contains(err.Error(), "not an earlier one") {
						t.Fatalf("%s on a cyclic chain = %v, want an error refusing the base", call, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s did not return within 5 s on a cyclic chain", call)
				}
			}
		})
	}
}

// TestFailedWriteLosesNoRows injects a full disk on one shard of a delta,
// and separately a failed publish, into the background writer. The error
// surfaces one call late, from whichever of AutoSave and Latest comes
// first, and names the checkpoint; the store then still holds the last
// good checkpoint, and the next save is full, so the rows whose marks
// the failed snapshot consumed reach disk.
func TestFailedWriteLosesNoRows(t *testing.T) {
	for _, tc := range []struct {
		name, op, suffix string
		err              error
	}{
		{"ENOSPC", "write", "table-0001.delta", syscall.ENOSPC},
		{"Rename", "rename", "", errors.New("injected rename failure")},
	} {
		for _, first := range []string{"AutoSave", "Latest"} {
			t.Run(tc.name+"/"+first, func(t *testing.T) {
				st := testState(15)
				dirty := newDirtySet(st)
				dir := t.TempDir()
				store, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range []int{10, 20} {
					mutate(st, dirty, float32(step))
					st.Step = step
					if _, err := store.AutoSave(st, dirty, 0); err != nil {
						t.Fatal(err)
					}
				}
				good := snapshot(st)
				if _, _, err := store.Latest(); err != nil {
					t.Fatal(err)
				}

				// Between 20 and 30, one row no later step touches.
				mutate(st, dirty, 0.25)
				st.Tables[0].Weights.Row(7)[0] += 3
				dirty[0].Mark([]int32{7})
				st.Step = 30
				writeHook = func(op, path string) error {
					if op == tc.op && strings.HasSuffix(path, tc.suffix) {
						return tc.err
					}
					return nil
				}
				heal := func() { writeHook = func(string, string) error { return nil } }
				defer heal()
				info, err := store.AutoSave(st, dirty, 0)
				if err != nil {
					t.Fatal(err)
				}
				if info.Kind != KindDelta {
					t.Fatalf("save at 30 is %s, want a delta", info.Kind)
				}

				mutate(st, dirty, 0.125)
				st.Step = 40
				if first == "AutoSave" {
					_, err = store.AutoSave(st, dirty, 0)
				} else {
					_, _, err = store.Latest()
				}
				if err == nil || !strings.Contains(err.Error(), info.Name) || !errors.Is(err, tc.err) {
					t.Fatalf("%s after the failed write = %v, want %v naming %s", first, err, tc.err, info.Name)
				}
				heal() // the writer has ended: the wait above returned its error
				name, _, err := store.Latest()
				if err != nil || name != ckName(20, KindDelta) {
					t.Fatalf("Latest after the failure = %q, %v; want the last good %s", name, err, ckName(20, KindDelta))
				}
				restored := testState(15)
				if _, err := store.Restore(restored); err != nil {
					t.Fatal(err)
				}
				assertEqualSnapshot(t, good, restored)

				next, err := store.AutoSave(st, dirty, 0)
				if err != nil {
					t.Fatal(err)
				}
				if next.Kind != KindFull {
					t.Fatalf("first save after a failed write is %s, want full", next.Kind)
				}
				scramble(restored)
				if _, err := store.Restore(restored); err != nil {
					t.Fatal(err)
				}
				if restored.Step != 40 {
					t.Fatalf("restored step %d, want 40", restored.Step)
				}
				assertEqualSnapshot(t, snapshot(st), restored)
				if err := store.Verify(); err != nil {
					t.Fatal(err)
				}
				des, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				for _, de := range des {
					if strings.HasSuffix(de.Name(), ".tmp") {
						t.Fatalf("failed write left %s behind", de.Name())
					}
				}
			})
		}
	}
}

// TestFullSaveRetiresSupersededChain makes 12 saves with a full every
// third: each full is fsynced (its shards, manifest and directory, then
// the store directory) and then removes every checkpoint before it, while
// a delta syncs and removes nothing. At the end only the live chain is
// on disk, and it restores bit for bit and verifies.
func TestFullSaveRetiresSupersededChain(t *testing.T) {
	st := testState(16)
	dirty := newDirtySet(st)
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var synced []string
	writeHook = func(op, path string) error {
		if op == "sync" {
			synced = append(synced, path)
		}
		return nil
	}
	defer func() { writeHook = func(string, string) error { return nil } }()
	for i := 1; i <= 12; i++ {
		mutate(st, dirty, float32(i)*0.5)
		st.Step = 10 * i
		synced = synced[:0] // the previous write has ended
		info, err := store.AutoSave(st, dirty, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := store.Latest(); err != nil { // so has this one
			t.Fatal(err)
		}
		if info.Kind == KindDelta && len(synced) != 0 {
			t.Fatalf("delta %s synced %v, want nothing", info.Name, synced)
		}
		if info.Kind == KindFull {
			// Files, the manifest, the checkpoint directory and the store.
			if want := info.Files + 3; len(synced) != want || synced[len(synced)-1] != dir {
				t.Fatalf("full %s synced %v, want %d syncs ending with the store directory", info.Name, synced, want)
			}
		}
	}
	want := []string{ckName(100, KindFull), ckName(110, KindDelta), ckName(120, KindDelta)}
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk []string
	for _, de := range des {
		onDisk = append(onDisk, de.Name())
	}
	if strings.Join(onDisk, " ") != strings.Join(want, " ") {
		t.Fatalf("store directory holds %v, want only the live chain %v", onDisk, want)
	}
	good := snapshot(st)
	restored := testState(16)
	scramble(restored)
	info, err := store.Restore(restored)
	if err != nil {
		t.Fatal(err)
	}
	if info.Chain != 3 || restored.Step != 120 {
		t.Fatalf("restored step %d over a chain of %d, want step 120 over 3", restored.Step, info.Chain)
	}
	assertEqualSnapshot(t, good, restored)
	if err := store.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestFailedFullKeepsSupersededChain fails the full save that would
// retire a chain, at a shard's fsync, at the store directory's fsync
// (after the rename published it) and at the rename: every checkpoint
// before it stays on disk, and the store still restores and verifies.
func TestFailedFullKeepsSupersededChain(t *testing.T) {
	for _, tc := range []struct {
		name      string
		fails     func(op, path, dir string) bool
		published bool // the full is on disk despite the error
	}{
		{"ShardSync", func(op, path, _ string) bool { return op == "sync" && strings.HasSuffix(path, "table-0001.full") }, false},
		{"StoreSync", func(op, path, dir string) bool { return op == "sync" && path == dir }, true},
		{"Rename", func(op, _, _ string) bool { return op == "rename" }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := testState(17)
			dirty := newDirtySet(st)
			dir := t.TempDir()
			store, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, step := range []int{10, 20, 30} {
				mutate(st, dirty, float32(step))
				st.Step = step
				if _, err := store.AutoSave(st, dirty, 3); err != nil {
					t.Fatal(err)
				}
			}
			older, err := store.List()
			if err != nil {
				t.Fatal(err)
			}
			injected := errors.New("injected failure")
			writeHook = func(op, path string) error {
				if tc.fails(op, path, dir) {
					return injected
				}
				return nil
			}
			defer func() { writeHook = func(string, string) error { return nil } }()
			mutate(st, dirty, 40)
			st.Step = 40
			info, err := store.AutoSave(st, dirty, 3)
			if err != nil {
				t.Fatal(err)
			}
			if info.Kind != KindFull {
				t.Fatalf("save at 40 is %s, want the compacting full", info.Kind)
			}
			if _, _, err := store.Latest(); !errors.Is(err, injected) {
				t.Fatalf("Latest after the failed full = %v, want %v", err, injected)
			}
			names, err := store.List()
			if err != nil {
				t.Fatal(err)
			}
			if tc.published {
				older = append(older, info.Name)
			}
			if strings.Join(names, " ") != strings.Join(older, " ") {
				t.Fatalf("store holds %v after the failed full, want %v", names, older)
			}
			if err := store.Verify(); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Restore(testState(17)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzRestoreManifest rewrites the tip manifest of a small store (a full
// checkpoint and one delta on it) with mutated bytes. Restore must
// return an error or the exact state at the tip, and Verify must return;
// neither may panic or hang.
func FuzzRestoreManifest(f *testing.F) {
	dir := f.TempDir()
	st := testState(16)
	dirty := newDirtySet(st)
	store, err := OpenStore(dir)
	if err != nil {
		f.Fatal(err)
	}
	st.Step = 1
	if _, err := store.AutoSave(st, dirty, 1); err != nil {
		f.Fatal(err)
	}
	mutate(st, dirty, 0.5)
	st.Step = 2
	if _, err := store.AutoSave(st, dirty, 0); err != nil {
		f.Fatal(err)
	}
	want := snapshot(st)
	tipName, tip, err := store.Latest()
	if err != nil {
		f.Fatal(err)
	}
	manPath := filepath.Join(dir, tipName, manifestName)
	orig, err := os.ReadFile(manPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(orig)
	self := *tip
	self.Base, self.BaseRoot = tipName, tip.Root
	for _, m := range []Manifest{self, {Version: 1, Step: 2, Kind: KindFull, Root: tip.Root}} {
		js, err := json.Marshal(&m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	f.Add([]byte(strings.Replace(string(orig), `"step": 2`, `"step": 3`, 1)))

	restored := testState(16)
	f.Fuzz(func(t *testing.T, js []byte) {
		if err := os.WriteFile(manPath, js, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		scramble(restored)
		var restoreErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, restoreErr = s.Restore(restored)
			_ = s.Verify()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("Restore or Verify did not return within 10 s")
		}
		if restoreErr == nil {
			if restored.Step != 2 {
				t.Fatalf("restore succeeded at step %d, want 2", restored.Step)
			}
			assertEqualSnapshot(t, want, restored)
		}
	})
}

// FuzzDecodeCkptShard feeds arbitrary bytes, as a shard file read back
// from disk, to every shard decoder: decodeDense and decodeTable (full
// and delta) for each table, against two fixed states, one with
// optimizer state (Adagrad) and one without (SGD), each holding an fp32
// and a bf16 table. Every input must return an error or decode in
// bounds: no panic, and no parameter, accumulator or replica changes
// length. A real shard must decode without error into the state whose
// decoder it was written for. The seeds are real encoded shards of both
// states (dense, full and delta tables) plus truncated and bit-flipped
// copies.
func FuzzDecodeCkptShard(f *testing.F) {
	newState := func(seed int64, accum bool) *ModelState {
		st := testState(seed)
		rng := xrand.New(seed + 1)
		st.Tables[1] = embedding.NewTableTyped("t", st.Tables[1].HashSize, st.Tables[1].Dim, tensor.BF16, rng)
		if !accum {
			st.Optimizer, st.DenseAccum, st.SparseAccum = "sgd", nil, nil
		}
		return st
	}
	// shards encodes every shard of st: the dense shard, then each table
	// full and as a delta of three rows, each with the index of the
	// decodeAll decoder that reads it (0 dense, 1+ti table ti).
	type shard struct {
		raw    []byte
		reader int
	}
	shards := func(st *ModelState) []shard {
		e := enc{buf: make([]byte, denseBytes(st))}
		encodeDense(&e, st)
		out := []shard{{e.buf, 0}}
		for ti, tab := range st.Tables {
			e := enc{buf: make([]byte, tableBytes(st, ti, true, tab.HashSize))}
			encodeTableFull(&e, st, ti)
			out = append(out, shard{e.buf, 1 + ti})
			dirty := NewDirty(tab.HashSize)
			dirty.Mark([]int32{0, int32(ti + 2), int32(tab.HashSize - 1)})
			e = enc{buf: make([]byte, tableBytes(st, ti, false, dirty.Count()))}
			encodeTableDelta(&e, st, ti, dirty)
			out = append(out, shard{e.buf, 1 + ti})
		}
		return out
	}
	// decodeAll runs every decoder on raw: decodeDense, then decodeTable
	// for each table.
	decodeAll := func(st *ModelState, raw []byte) []error {
		errs := []error{decodeDense(&dec{buf: raw, file: "fuzz"}, st)}
		for ti := range st.Tables {
			errs = append(errs, decodeTable(&dec{buf: raw, file: "fuzz"}, st, ti))
		}
		return errs
	}
	shape := func(st *ModelState) []int {
		var n []int
		for _, p := range st.Dense {
			n = append(n, len(p))
		}
		for _, a := range st.DenseAccum {
			n = append(n, len(a))
		}
		for _, tab := range st.Tables {
			n = append(n, tab.HashSize, tab.Dim, len(tab.Weights.Data), int(tab.DType))
		}
		for _, a := range st.SparseAccum {
			n = append(n, len(a))
		}
		return n
	}

	states := []*ModelState{newState(30, true), newState(40, false)}
	real := map[string][2]int{} // shard bytes -> (state, decoder)
	for si := range states {
		for _, sh := range shards(newState(int64(50+si), si == 0)) {
			raw := sh.raw
			real[string(raw)] = [2]int{si, sh.reader}
			f.Add(raw)
			f.Add(raw[:len(raw)/2])
			f.Add(raw[:len(raw)-1])
			for _, bit := range []int{0, 8*4 + 3, 8*(len(raw)/2) + 7, 8*len(raw) - 1} {
				flipped := append([]byte(nil), raw...)
				flipped[bit/8] ^= 1 << (bit % 8)
				f.Add(flipped)
			}
		}
	}
	want := [][]int{shape(states[0]), shape(states[1])}

	f.Fuzz(func(t *testing.T, raw []byte) {
		for si, st := range states {
			errs := decodeAll(st, raw)
			if got := shape(st); fmt.Sprint(got) != fmt.Sprint(want[si]) {
				t.Fatalf("state %d changed shape: %v, want %v", si, got, want[si])
			}
			if at, ok := real[string(raw)]; ok && at[0] == si && errs[at[1]] != nil {
				t.Fatalf("a real shard failed decoder %d of state %d: %v", at[1], si, errs[at[1]])
			}
		}
	})
}
