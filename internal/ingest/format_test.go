package ingest

import (
	"encoding/binary"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

func testCfg() core.Config {
	return core.Config{
		Name:          "ingest-test",
		DenseFeatures: 4,
		Sparse:        core.UniformSparse(2, 100, 3),
		EmbeddingDim:  8,
		BottomMLP:     []int{8},
		TopMLP:        []int{8},
		Interaction:   core.Concat,
	}
}

// handBatch builds a deterministic MiniBatch without the data package
// (which imports ingest).
func handBatch(cfg core.Config, rng *xrand.RNG, b int) *core.MiniBatch {
	mb := &core.MiniBatch{Dense: tensor.New(b, cfg.DenseFeatures)}
	for i := range mb.Dense.Data {
		mb.Dense.Data[i] = float32(rng.Norm())
	}
	mb.Bags = make([]embedding.Bag, cfg.NumSparse())
	for f := range mb.Bags {
		bag := &mb.Bags[f]
		bag.Offsets = append(bag.Offsets, 0)
		for i := 0; i < b; i++ {
			n := 1 + rng.Intn(4)
			for k := 0; k < n; k++ {
				bag.Indices = append(bag.Indices, int32(rng.Intn(cfg.Sparse[f].HashSize)))
			}
			bag.Offsets = append(bag.Offsets, int32(len(bag.Indices)))
		}
	}
	mb.Labels = make([]float32, b)
	for i := range mb.Labels {
		if rng.Float32() < 0.3 {
			mb.Labels[i] = 1
		}
	}
	return mb
}

func writeTestDataset(t *testing.T, cfg core.Config, seed int64, shards, perShard int) string {
	t.Helper()
	dir := t.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(seed)
	for s := 0; s < shards; s++ {
		if err := w.Append(handBatch(cfg, rng, perShard)); err != nil {
			t.Fatal(err)
		}
		if err := w.EndShard(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestShardRoundTrip pins the wire format: what the writer serializes,
// decodeShard restores bit-exactly.
func TestShardRoundTrip(t *testing.T) {
	cfg := testCfg()
	dir := t.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(1)
	mb := handBatch(cfg, rng, 17)
	if err := w.Append(mb); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if ds.Examples() != 17 {
		t.Fatalf("dataset holds %d examples, want 17", ds.Examples())
	}
	raw, err := os.ReadFile(filepath.Join(dir, ds.Manifest.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(raw)) != ds.Manifest.Shards[0].Bytes {
		t.Fatalf("shard file %d bytes, manifest says %d", len(raw), ds.Manifest.Shards[0].Bytes)
	}
	var blk block
	if err := decodeShard(raw, &ds.Manifest, &blk); err != nil {
		t.Fatal(err)
	}
	if blk.n != 17 {
		t.Fatalf("decoded %d examples, want 17", blk.n)
	}
	for i := 0; i < blk.n; i++ {
		for j := 0; j < cfg.DenseFeatures; j++ {
			if got, want := blk.dense[i*cfg.DenseFeatures+j], mb.Dense.At(i, j); got != want {
				t.Fatalf("dense[%d,%d] = %v, want %v", i, j, got, want)
			}
		}
		if got := float32(blk.labels[i]); got != mb.Labels[i] {
			t.Fatalf("label[%d] = %v, want %v", i, got, mb.Labels[i])
		}
		for f := range mb.Bags {
			bag := &mb.Bags[f]
			want := bag.Indices[bag.Offsets[i]:bag.Offsets[i+1]]
			got := blk.featIdx[f][blk.featOff[f][i]:blk.featOff[f][i+1]]
			if len(got) != len(want) {
				t.Fatalf("example %d feature %d: %d indices, want %d", i, f, len(got), len(want))
			}
			for k := range want {
				if got[k] != want[k] {
					t.Fatalf("example %d feature %d index %d: %d, want %d", i, f, k, got[k], want[k])
				}
			}
		}
	}
}

func TestManifestAndCompat(t *testing.T) {
	cfg := testCfg()
	dir := writeTestDataset(t, cfg, 2, 3, 8)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if len(ds.Manifest.Shards) != 3 || ds.Examples() != 24 {
		t.Fatalf("manifest: %d shards / %d examples, want 3 / 24", len(ds.Manifest.Shards), ds.Examples())
	}
	if err := ds.CompatibleWith(cfg); err != nil {
		t.Fatalf("same config rejected: %v", err)
	}
	back := ds.Config()
	back.EmbeddingDim = cfg.EmbeddingDim
	back.BottomMLP = cfg.BottomMLP
	back.TopMLP = cfg.TopMLP
	if err := back.Validate(); err != nil {
		t.Fatalf("reconstructed config invalid: %v", err)
	}
	if err := ds.CompatibleWith(back); err != nil {
		t.Fatalf("reconstructed config rejected: %v", err)
	}

	bad := cfg
	bad.DenseFeatures = 9
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("dense mismatch accepted")
	}
	bad = cfg
	bad.Sparse = core.UniformSparse(2, 999, 3)
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("hash-size mismatch accepted")
	}
	bad = cfg
	bad.Sparse = core.UniformSparse(3, 100, 3)
	if err := ds.CompatibleWith(bad); err == nil {
		t.Error("sparse-count mismatch accepted")
	}
}

func TestOpenDatasetErrors(t *testing.T) {
	if _, err := OpenDataset(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
	// Corrupt a shard and make sure decode catches it.
	cfg := testCfg()
	dir := writeTestDataset(t, cfg, 3, 1, 4)
	ds, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	raw, err := os.ReadFile(filepath.Join(dir, ds.Manifest.Shards[0].File))
	if err != nil {
		t.Fatal(err)
	}
	var blk block
	if err := decodeShard(raw[:len(raw)-3], &ds.Manifest, &blk); err == nil {
		t.Error("truncated shard decoded without error")
	}
	raw[0] ^= 0xff
	if err := decodeShard(raw, &ds.Manifest, &blk); err == nil {
		t.Error("bad magic decoded without error")
	}
}

// indexOffset walks a raw shard to the byte offset of the first index of
// example ex, feature f (which must have one).
func indexOffset(t *testing.T, raw []byte, man *Manifest, ex, f int) int {
	t.Helper()
	p := shardHeader
	for i := 0; ; i++ {
		p += 1 + 4*man.DenseFeatures
		for g := range man.Sparse {
			n := int(binary.LittleEndian.Uint16(raw[p:]))
			p += 2
			if i == ex && g == f {
				if n == 0 {
					t.Fatalf("example %d feature %d has no index", ex, f)
				}
				return p
			}
			p += 4 * n
		}
	}
}

// TestDecodeRejectsOutOfRangeIndex: a shard whose index falls outside its
// feature's hash space is refused by the reader, with an error naming the
// shard, the example and the feature, instead of reaching a lookup.
func TestDecodeRejectsOutOfRangeIndex(t *testing.T) {
	cfg := testCfg()
	for _, bad := range []int32{int32(cfg.Sparse[1].HashSize), -1} {
		dir := writeTestDataset(t, cfg, 5, 1, 6)
		ds, err := OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		file := ds.Manifest.Shards[0].File
		raw, err := os.ReadFile(filepath.Join(dir, file))
		if err != nil {
			t.Fatal(err)
		}
		off := indexOffset(t, raw, &ds.Manifest, 3, 1)
		binary.LittleEndian.PutUint32(raw[off:], uint32(bad))
		if err := os.WriteFile(filepath.Join(dir, file), raw, 0o644); err != nil {
			t.Fatal(err)
		}

		var blk block
		err = decodeShard(raw, &ds.Manifest, &blk)
		if err == nil || !strings.Contains(err.Error(), "example 3 feature 1") {
			t.Fatalf("index %d: decode error %v, want one naming example 3 feature 1", bad, err)
		}
		p, err := Open(ds, cfg, Options{BatchSize: 2, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		for err == nil {
			var mb *core.MiniBatch
			if mb, err = p.NextBatch(); err == nil {
				p.Recycle(mb)
			}
		}
		p.Close()
		ds.Close()
		if errors.Is(err, io.EOF) || !strings.Contains(err.Error(), file) ||
			!strings.Contains(err.Error(), "example 3 feature 1") {
			t.Fatalf("index %d: pipeline error %v, want one naming %s, example 3 and feature 1", bad, err, file)
		}
	}
}

// FuzzDecodeShard feeds decodeShard mutated RSD1 shard images, seeded
// with the two shards the ShardWriter wrote (one and seventeen
// examples), each also with a header that claims 2³²−1 examples, and a
// bare header of zero examples. A
// decode must return an error or a block whose offsets run monotone
// from 0 to the id count and whose ids lie in their feature's hash
// space; it must never panic. Decoding the same bytes again into the
// used block must give the same block.
func FuzzDecodeShard(f *testing.F) {
	cfg := testCfg()
	dir := f.TempDir()
	w, err := NewShardWriter(dir, cfg)
	if err != nil {
		f.Fatal(err)
	}
	rng := xrand.New(9)
	for _, n := range []int{1, 17} {
		if err := w.Append(handBatch(cfg, rng, n)); err != nil {
			f.Fatal(err)
		}
		if err := w.EndShard(); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	ds, err := OpenDataset(dir)
	if err != nil {
		f.Fatal(err)
	}
	man := ds.Manifest
	ds.Close()
	for _, sh := range man.Shards {
		raw, err := os.ReadFile(filepath.Join(dir, sh.File))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		huge := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(huge[12:], 0xffffffff)
		f.Add(huge)
		empty := append([]byte(nil), raw[:shardHeader]...)
		binary.LittleEndian.PutUint32(empty[12:], 0)
		f.Add(empty)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		var blk block
		if decodeShard(raw, &man, &blk) != nil {
			return
		}
		checkBlock(t, &blk, &man)
		first := blk.n
		labels := string(blk.labels)
		idx := make([][]int32, len(blk.featIdx))
		for f := range idx {
			idx[f] = append([]int32(nil), blk.featIdx[f]...)
		}
		if err := decodeShard(raw, &man, &blk); err != nil {
			t.Fatalf("second decode of accepted bytes: %v", err)
		}
		checkBlock(t, &blk, &man)
		if blk.n != first || string(blk.labels) != labels {
			t.Fatalf("second decode: %d examples, labels %q; first: %d, %q", blk.n, blk.labels, first, labels)
		}
		for f := range idx {
			if !slices.Equal(blk.featIdx[f], idx[f]) {
				t.Fatalf("second decode: feature %d ids %v, first %v", f, blk.featIdx[f], idx[f])
			}
		}
	})
}

// checkBlock asserts a decoded block's shape: n labels, n dense rows, and
// per feature n+1 monotone offsets from 0 to the id count over ids in
// [0, HashSize).
func checkBlock(t *testing.T, blk *block, man *Manifest) {
	t.Helper()
	n := blk.n
	if n < 0 || len(blk.labels) != n || len(blk.dense) != n*man.DenseFeatures || len(blk.featIdx) != len(man.Sparse) {
		t.Fatalf("block of %d examples: %d labels, %d dense values, %d features", n, len(blk.labels), len(blk.dense), len(blk.featIdx))
	}
	for f, ids := range blk.featIdx {
		off := blk.featOff[f]
		if len(off) < n+1 || off[0] != 0 || int(off[n]) != len(ids) {
			t.Fatalf("feature %d: %d offsets for %d examples and %d ids", f, len(off), n, len(ids))
		}
		for i := 0; i < n; i++ {
			if off[i+1] < off[i] {
				t.Fatalf("feature %d: offsets fall at example %d (%d -> %d)", f, i, off[i], off[i+1])
			}
		}
		for _, ix := range ids {
			if ix < 0 || int(ix) >= man.Sparse[f].HashSize {
				t.Fatalf("feature %d: id %d outside [0,%d)", f, ix, man.Sparse[f].HashSize)
			}
		}
	}
}
