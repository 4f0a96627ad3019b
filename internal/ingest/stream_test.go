package ingest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
)

// streamCases are the reader shapes whose one-reader batch streams are
// pinned by committed digests. The digests hash each batch's labels,
// dense values, offsets and ids, so any change to which example lands
// in which batch slot, or to an example's bytes, moves them.
var streamCases = []struct {
	name             string
	shards, perShard int
	batch, epochs    int
	batches          int // batches hashed; 0 hashes the whole finite stream
	digest           string
}{
	// Shard rows far above the 4×16-example shuffle window: each block
	// is drawn down through many batches.
	{name: "rows>>window", shards: 3, perShard: 1000, batch: 16, batches: 300,
		digest: "0b452ebaecba6ad902ffe0d01f3c2cd62388f728472e43ce89e47423e181d815"},
	// Shards smaller than one batch: every fill admits several blocks.
	{name: "rows<batch", shards: 10, perShard: 24, batch: 64, batches: 40,
		digest: "a4f96cae3cbca88b0631c7615f5ba54de767738d9b41647430be473f500b2bca"},
	// Two epochs of 4 × 250 rows in batches of 12: 166 full batches,
	// then the window drains into a partial one of 8.
	{name: "finite", shards: 4, perShard: 250, batch: 12, epochs: 2,
		digest: "186bbadc8a38f707332300a957792b6f4047e4e0a222e2292260ce50725c5bf3"},
}

// TestBatchStreamDigest drains a one-reader pipeline for each stream
// case, dedup off and on, and compares a SHA-256 of the batch bytes with
// the committed digest. Dedup attaches a view and must not touch the
// bags, so both runs give one digest.
func TestBatchStreamDigest(t *testing.T) {
	cfg := testCfg()
	for _, c := range streamCases {
		dir := writeTestDataset(t, cfg, 77, c.shards, c.perShard)
		ds, err := OpenDataset(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		for _, dedup := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/dedup=%v", c.name, dedup), func(t *testing.T) {
				p, err := Open(ds, cfg, Options{
					BatchSize: c.batch, Readers: 1, Epochs: c.epochs, Dedup: dedup, Seed: 3,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer p.Close()
				h := sha256.New()
				var buf []byte
				batches, examples := 0, 0
				for c.batches == 0 || batches < c.batches {
					mb, err := p.NextBatch()
					if errors.Is(err, io.EOF) && c.batches == 0 {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					if verr := mb.Validate(&cfg); verr != nil {
						t.Fatalf("batch %d: %v", batches, verr)
					}
					if got := len(mb.Dedup) == cfg.NumSparse() && mb.Dedup[0].Built(); got != dedup {
						t.Fatalf("batch %d carries a dedup view: %v, want %v", batches, got, dedup)
					}
					buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(mb.Batch()))
					for _, v := range mb.Labels {
						buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
					}
					for _, v := range mb.Dense.Data {
						buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
					}
					for f := range mb.Bags {
						for _, o := range mb.Bags[f].Offsets {
							buf = binary.LittleEndian.AppendUint32(buf, uint32(o))
						}
						for _, ix := range mb.Bags[f].Indices {
							buf = binary.LittleEndian.AppendUint32(buf, uint32(ix))
						}
					}
					h.Write(buf)
					batches++
					examples += mb.Batch()
					p.Recycle(mb)
				}
				p.Close()
				m := p.reg.Snapshot()
				minted, compacted := m.Get("ingest/blocks_minted"), m.Get("ingest/rows_compacted")
				if compacted == 0 {
					t.Errorf("no rows compacted in %d batches", batches)
				}
				if bound := mintBound(1, c.batch, c.perShard); minted > int64(bound) {
					t.Errorf("%d blocks minted, bound %d", minted, bound)
				}
				t.Logf("%d batches: %d blocks minted, %d of %d decoded rows compacted",
					batches, minted, compacted, m.Get("ingest/examples_decoded"))
				if c.batches == 0 {
					if want := c.epochs * c.shards * c.perShard; examples != want {
						t.Fatalf("finite stream delivered %d examples, want %d", examples, want)
					}
				}
				if got := hex.EncodeToString(h.Sum(nil)); got != c.digest {
					t.Errorf("stream digest %s, want %s (%d batches)", got, c.digest, batches)
				}
			})
		}
	}
}

// mintBound is the most blocks a pipeline can mint, decoder and
// compaction blocks together, with shards of rows examples. Decoders
// hold at most readers+readAhead blocks outside the reservoir. The
// reservoir holds at most window-1+rows references, and after each
// sweep every held block but the open compaction block keeps at least
// 1/compactBelow of its rows live: rows for a decoder block, window for
// a closed compaction block. A sweep can open one compaction block per
// window rows it moves, plus one, before it releases the sources.
func mintBound(readers, batch, rows int) int {
	window := shuffleBatches * batch
	refs := window - 1 + rows
	minLive := (min(rows, window) + compactBelow - 1) / compactBelow
	return readers + readAhead + refs/minLive + 1 + refs/window + 1
}
