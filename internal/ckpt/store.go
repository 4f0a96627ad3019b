package ckpt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
	"repro/internal/tensor"
)

const (
	manifestName = "MANIFEST.json"

	magicDense     = uint32('C') | uint32('K')<<8 | uint32('D')<<16 | uint32('N')<<24
	magicTableFull = uint32('C') | uint32('K')<<8 | uint32('T')<<16 | uint32('F')<<24
	magicTableDelt = uint32('C') | uint32('K')<<8 | uint32('T')<<16 | uint32('D')<<24

	// KindFull / KindDelta are the manifest "kind" values.
	KindFull  = "full"
	KindDelta = "delta"
)

// ErrNoCheckpoint reports an empty store on restore.
var ErrNoCheckpoint = errors.New("ckpt: store holds no checkpoint")

// Entry is one content-hashed shard file in a checkpoint manifest.
type Entry struct {
	File   string `json:"file"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
	// Table is the embedding-table index the shard carries, or -1 for
	// the dense replica + optimizer shard.
	Table int `json:"table"`
	// Rows is the serialized row count (touched rows for a delta, the
	// full table for a full checkpoint; 0 for the dense shard).
	Rows int `json:"rows,omitempty"`
	// OwnerRank is the rank that owned this shard under the
	// TableWiseGreedy layout at save time.
	OwnerRank int `json:"owner_rank"`
}

// TableDims fingerprints one table's geometry and storage dtype.
// DType is empty for fp32 (keeping pre-dtype manifests readable) and
// "bf16"/"fp16" for reduced-precision tables.
type TableDims struct {
	Rows  int    `json:"rows"`
	Dim   int    `json:"dim"`
	DType string `json:"dtype,omitempty"`
}

// dtypeLabel renders a storage dtype for manifests and shard headers:
// fp32 maps to "" so full-precision checkpoints are byte-stable across
// the dtype introduction.
func dtypeLabel(dt tensor.DType) string {
	if dt == tensor.FP32 {
		return ""
	}
	return dt.String()
}

// orFP32 renders a manifest dtype label for error messages.
func orFP32(s string) string {
	if s == "" {
		return "fp32"
	}
	return s
}

// Fingerprint pins the model geometry a checkpoint belongs to; restore
// refuses a state with a different shape or optimizer.
type Fingerprint struct {
	Optimizer   string      `json:"optimizer"`
	DenseParams []int       `json:"dense_params"`
	Tables      []TableDims `json:"tables"`
}

// Manifest is a checkpoint's integrity record: the shard index with
// per-file SHA-256 hashes, the Merkle root over them, and — for deltas —
// the link to the base checkpoint, pinned by the base's own root.
type Manifest struct {
	Version int    `json:"version"`
	Step    int    `json:"step"`
	Kind    string `json:"kind"`
	// Base names the parent checkpoint directory (delta only), and
	// BaseRoot pins its Merkle root so a swapped-out parent is detected.
	Base     string `json:"base,omitempty"`
	BaseRoot string `json:"base_root,omitempty"`
	// Chain counts delta links back to the nearest full checkpoint
	// (0 for a full checkpoint).
	Chain   int         `json:"chain"`
	Ranks   int         `json:"ranks"`
	Model   Fingerprint `json:"model"`
	Entries []Entry     `json:"entries"`
	// Root is the Merkle root over the entry hashes, in entry order.
	Root string `json:"root"`
}

// SaveInfo summarizes one checkpoint write.
type SaveInfo struct {
	Name  string
	Step  int
	Kind  string
	Files int
	Bytes int64
	// Rows is the number of serialized table rows (the delta size).
	Rows int
	Root string
	Wall time.Duration
}

// RestoreInfo summarizes one restore: the chain that was replayed and
// the verified bytes it moved.
type RestoreInfo struct {
	Name  string
	Step  int
	Chain int // checkpoints applied (1 for a full, 1+deltas otherwise)
	Files int
	Bytes int64
	Root  string
	Wall  time.Duration
}

// Store manages a checkpoint directory: a sequence of
// ck-<step>-<kind>/ checkpoint directories, each holding shard files
// under a MANIFEST.json. All methods are driven from the training
// control thread between steps; a Store performs no background work.
type Store struct {
	dir   string
	trace *telemetry.Tracer
	shard int

	saves, fullSaves, restores    *telemetry.Counter
	bytesWritten, bytesRestored   *telemetry.Counter
	saveNs, restoreNs, deltaRowsC *telemetry.Counter
}

// OpenStore opens (creating if needed) a checkpoint directory with
// private, unexported meters. Use OpenStoreWith to land the "ckpt/…"
// counters in a shared registry.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreWith(dir, nil, nil, 0)
}

// OpenStoreWith opens a checkpoint directory whose meters live in reg
// ("ckpt/saves", "ckpt/bytes_written", …) and whose save/restore spans
// (PhaseCheckpoint, PhaseRestore) record onto the given tracer shard.
// Both may be nil.
func OpenStoreWith(dir string, reg *telemetry.Registry, trace *telemetry.Tracer, shard int) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: creating store dir: %w", err)
	}
	return &Store{
		dir:           dir,
		trace:         trace,
		shard:         shard,
		saves:         reg.Counter("ckpt/saves"),
		fullSaves:     reg.Counter("ckpt/full_saves"),
		restores:      reg.Counter("ckpt/restores"),
		bytesWritten:  reg.Counter("ckpt/bytes_written"),
		bytesRestored: reg.Counter("ckpt/bytes_restored"),
		saveNs:        reg.Counter("ckpt/save_ns"),
		restoreNs:     reg.Counter("ckpt/restore_ns"),
		deltaRowsC:    reg.Counter("ckpt/delta_rows"),
	}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// ckName formats a checkpoint directory name. Step-ordered names make
// Latest a directory listing.
func ckName(step int, kind string) string { return fmt.Sprintf("ck-%08d-%s", step, kind) }

// parseCkName extracts (step, kind) from a checkpoint directory name:
// "ck-", the step in decimal digits, "-", then a known kind.
func parseCkName(name string) (int, string, bool) {
	rest, ok := strings.CutPrefix(name, "ck-")
	digits, kind, dash := strings.Cut(rest, "-")
	if !ok || !dash || digits == "" || (kind != KindFull && kind != KindDelta) {
		return 0, "", false
	}
	step := 0
	for _, c := range []byte(digits) {
		if c < '0' || c > '9' || step > (math.MaxInt-9)/10 {
			return 0, "", false
		}
		step = step*10 + int(c-'0')
	}
	return step, kind, true
}

// List returns the completed checkpoints (those with a manifest) in
// ascending step order. Each name is parsed once.
func (s *Store) List() ([]string, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("ckpt: listing store: %w", err)
	}
	type entry struct {
		name string
		step int
		full bool
	}
	var cks []entry
	for _, de := range des {
		if !de.IsDir() {
			continue
		}
		step, kind, ok := parseCkName(de.Name())
		if !ok {
			continue
		}
		if _, err := os.Stat(filepath.Join(s.dir, de.Name(), manifestName)); err != nil {
			continue // incomplete write, never referenced
		}
		cks = append(cks, entry{de.Name(), step, kind == KindFull})
	}
	sort.Slice(cks, func(i, j int) bool {
		if cks[i].step != cks[j].step {
			return cks[i].step < cks[j].step
		}
		return !cks[i].full && cks[j].full // full sorts after, wins ties
	})
	names := make([]string, len(cks))
	for i, ck := range cks {
		names[i] = ck.name
	}
	return names, nil
}

// Latest returns the newest completed checkpoint's name and manifest,
// or ("", nil, nil) for an empty store.
func (s *Store) Latest() (string, *Manifest, error) {
	names, err := s.List()
	if err != nil {
		return "", nil, err
	}
	if len(names) == 0 {
		return "", nil, nil
	}
	name := names[len(names)-1]
	man, err := s.readManifest(name)
	if err != nil {
		return "", nil, err
	}
	return name, man, nil
}

func (s *Store) readManifest(name string) (*Manifest, error) {
	js, err := os.ReadFile(filepath.Join(s.dir, name, manifestName))
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading manifest of %s: %w", name, err)
	}
	man := &Manifest{}
	if err := json.Unmarshal(js, man); err != nil {
		return nil, fmt.Errorf("ckpt: parsing manifest of %s: %w", name, err)
	}
	if man.Version != 1 {
		return nil, fmt.Errorf("ckpt: manifest of %s has version %d, want 1", name, man.Version)
	}
	if root := merkleRootHex(man.Entries); root != man.Root {
		return nil, fmt.Errorf("ckpt: manifest of %s fails Merkle verification (root %s, entries hash to %s)",
			name, man.Root, root)
	}
	return man, nil
}

// fingerprintOf derives the geometry fingerprint of a live state.
func fingerprintOf(st *ModelState) Fingerprint {
	fp := Fingerprint{Optimizer: st.Optimizer}
	for _, p := range st.Dense {
		fp.DenseParams = append(fp.DenseParams, len(p))
	}
	for _, t := range st.Tables {
		fp.Tables = append(fp.Tables, TableDims{Rows: t.HashSize, Dim: t.Dim, DType: dtypeLabel(t.DType)})
	}
	return fp
}

func checkFingerprint(name string, man *Manifest, st *ModelState) error {
	fp := fingerprintOf(st)
	if man.Model.Optimizer != fp.Optimizer {
		return fmt.Errorf("ckpt: %s was written under optimizer %q, state uses %q",
			name, man.Model.Optimizer, fp.Optimizer)
	}
	if len(man.Model.DenseParams) != len(fp.DenseParams) {
		return fmt.Errorf("ckpt: %s has %d dense params, state has %d",
			name, len(man.Model.DenseParams), len(fp.DenseParams))
	}
	for i, n := range man.Model.DenseParams {
		if n != fp.DenseParams[i] {
			return fmt.Errorf("ckpt: %s dense param %d has %d floats, state has %d",
				name, i, n, fp.DenseParams[i])
		}
	}
	if len(man.Model.Tables) != len(fp.Tables) {
		return fmt.Errorf("ckpt: %s has %d tables, state has %d",
			name, len(man.Model.Tables), len(fp.Tables))
	}
	for i, td := range man.Model.Tables {
		if td != fp.Tables[i] {
			return fmt.Errorf("ckpt: %s table %d is %dx%d %s, state is %dx%d %s",
				name, i, td.Rows, td.Dim, orFP32(td.DType),
				fp.Tables[i].Rows, fp.Tables[i].Dim, orFP32(fp.Tables[i].DType))
		}
	}
	return nil
}

// merkleRootHex computes the Merkle root over the entry hashes in entry
// order: leaves are the decoded SHA-256 file hashes, interior nodes hash
// the concatenation of their children, odd nodes promote.
func merkleRootHex(entries []Entry) string {
	level := make([][sha256.Size]byte, 0, len(entries))
	for _, e := range entries {
		raw, err := hex.DecodeString(e.SHA256)
		if err != nil || len(raw) != sha256.Size {
			// Poison the leaf so a malformed hash can never verify.
			raw = make([]byte, sha256.Size)
		}
		var h [sha256.Size]byte
		copy(h[:], raw)
		level = append(level, h)
	}
	if len(level) == 0 {
		return hex.EncodeToString(make([]byte, sha256.Size))
	}
	for len(level) > 1 {
		var merged [][sha256.Size]byte
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				h := sha256.New()
				h.Write(level[i][:])
				h.Write(level[i+1][:])
				var node [sha256.Size]byte
				h.Sum(node[:0])
				merged = append(merged, node)
			} else {
				merged = append(merged, level[i])
			}
		}
		level = merged
	}
	return hex.EncodeToString(level[0][:])
}

// ---- serialization ----

// enc is a deterministic little-endian byte encoder reused across shard
// files within one save.
type enc struct{ buf []byte }

func (e *enc) reset()       { e.buf = e.buf[:0] }
func (e *enc) u8(v byte)    { e.buf = append(e.buf, v) }
func (e *enc) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *enc) i32(v int32)  { e.u32(uint32(v)) }
func (e *enc) f32s(vals []float32) {
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, 4*len(vals))...)
	for _, v := range vals {
		binary.LittleEndian.PutUint32(e.buf[off:], math.Float32bits(v))
		off += 4
	}
}

// dec is the matching cursor-based decoder with truncation checks.
type dec struct {
	buf  []byte
	off  int
	file string
}

func (d *dec) need(n int) error {
	if d.off+n > len(d.buf) {
		return fmt.Errorf("ckpt: shard %s truncated at offset %d (need %d of %d bytes)",
			d.file, d.off, n, len(d.buf)-d.off)
	}
	return nil
}

func (d *dec) u8() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *dec) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *dec) f32s(dst []float32) error {
	if err := d.need(4 * len(dst)); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.buf[d.off:]))
		d.off += 4
	}
	return nil
}

func (d *dec) done() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("ckpt: shard %s has %d trailing bytes", d.file, len(d.buf)-d.off)
	}
	return nil
}

// encodeDense serializes the dense replica + dense optimizer state.
func encodeDense(e *enc, st *ModelState) {
	e.reset()
	e.u32(magicDense)
	e.u32(uint32(len(st.Dense)))
	for _, p := range st.Dense {
		e.u32(uint32(len(p)))
		e.f32s(p)
	}
	if st.DenseAccum != nil {
		e.u8(1)
		for _, acc := range st.DenseAccum {
			e.f32s(acc)
		}
	} else {
		e.u8(0)
	}
}

func decodeDense(d *dec, st *ModelState) error {
	magic, err := d.u32()
	if err != nil {
		return err
	}
	if magic != magicDense {
		return fmt.Errorf("ckpt: shard %s has bad dense magic %#x", d.file, magic)
	}
	nParams, err := d.u32()
	if err != nil {
		return err
	}
	if int(nParams) != len(st.Dense) {
		return fmt.Errorf("ckpt: shard %s carries %d dense params, state has %d", d.file, nParams, len(st.Dense))
	}
	for i, p := range st.Dense {
		n, err := d.u32()
		if err != nil {
			return err
		}
		if int(n) != len(p) {
			return fmt.Errorf("ckpt: shard %s dense param %d has %d floats, state has %d", d.file, i, n, len(p))
		}
		if err := d.f32s(p); err != nil {
			return err
		}
	}
	flag, err := d.u8()
	if err != nil {
		return err
	}
	if (flag == 1) != (st.DenseAccum != nil) {
		return fmt.Errorf("ckpt: shard %s optimizer-state flag %d does not match state", d.file, flag)
	}
	for _, acc := range st.DenseAccum {
		if err := d.f32s(acc); err != nil {
			return err
		}
	}
	return d.done()
}

// encodeTableFull serializes every row of table ti.
func encodeTableFull(e *enc, st *ModelState, ti int) {
	tab := st.Tables[ti]
	e.reset()
	e.u32(magicTableFull)
	e.u32(uint32(ti))
	e.u32(uint32(tab.HashSize))
	e.u32(uint32(tab.Dim))
	e.u8(uint8(tab.DType))
	e.f32s(tab.Weights.Data)
	if acc := st.rowAccum(ti); acc != nil {
		e.u8(1)
		e.f32s(acc)
	} else {
		e.u8(0)
	}
}

// encodeTableDelta serializes only the dirty rows of table ti, in
// ascending row order (copy-on-snapshot of the touched set).
func encodeTableDelta(e *enc, st *ModelState, ti int, d *Dirty) {
	tab := st.Tables[ti]
	e.reset()
	e.u32(magicTableDelt)
	e.u32(uint32(ti))
	e.u32(uint32(tab.HashSize))
	e.u32(uint32(tab.Dim))
	e.u8(uint8(tab.DType))
	e.u32(uint32(d.Count()))
	d.ForEach(func(row int32) { e.i32(row) })
	d.ForEach(func(row int32) { e.f32s(tab.Weights.Row(int(row))) })
	if acc := st.rowAccum(ti); acc != nil {
		e.u8(1)
		d.ForEach(func(row int32) { e.f32s(acc[row : row+1]) })
	} else {
		e.u8(0)
	}
}

// decodeTable applies a full or delta table shard to the state.
func decodeTable(d *dec, st *ModelState, wantTable int) error {
	magic, err := d.u32()
	if err != nil {
		return err
	}
	if magic != magicTableFull && magic != magicTableDelt {
		return fmt.Errorf("ckpt: shard %s has bad table magic %#x", d.file, magic)
	}
	ti32, err := d.u32()
	if err != nil {
		return err
	}
	ti := int(ti32)
	if ti != wantTable || ti >= len(st.Tables) {
		return fmt.Errorf("ckpt: shard %s carries table %d, manifest says %d", d.file, ti, wantTable)
	}
	tab := st.Tables[ti]
	rows, err := d.u32()
	if err != nil {
		return err
	}
	dim, err := d.u32()
	if err != nil {
		return err
	}
	if int(rows) != tab.HashSize || int(dim) != tab.Dim {
		return fmt.Errorf("ckpt: shard %s is %dx%d, table %d is %dx%d",
			d.file, rows, dim, ti, tab.HashSize, tab.Dim)
	}
	dtByte, err := d.u8()
	if err != nil {
		return err
	}
	if tensor.DType(dtByte) != tab.DType {
		return fmt.Errorf("ckpt: shard %s stores dtype %s, table %d is %s",
			d.file, tensor.DType(dtByte), ti, tab.DType)
	}
	acc := st.rowAccum(ti)
	if magic == magicTableFull {
		if err := d.f32s(tab.Weights.Data); err != nil {
			return err
		}
		flag, err := d.u8()
		if err != nil {
			return err
		}
		if (flag == 1) != (acc != nil) {
			return fmt.Errorf("ckpt: shard %s optimizer-state flag %d does not match state", d.file, flag)
		}
		if acc != nil {
			if err := d.f32s(acc); err != nil {
				return err
			}
		}
		tab.SyncAll()
		return d.done()
	}
	count, err := d.u32()
	if err != nil {
		return err
	}
	if int(count) > tab.HashSize {
		return fmt.Errorf("ckpt: shard %s delta carries %d rows for a %d-row table", d.file, count, tab.HashSize)
	}
	if err := d.need(4 * int(count)); err != nil {
		return err
	}
	ids := make([]int32, count)
	for i := range ids {
		v, _ := d.u32()
		ids[i] = int32(v)
		if int(ids[i]) >= tab.HashSize || ids[i] < 0 {
			return fmt.Errorf("ckpt: shard %s delta row id %d out of [0,%d)", d.file, ids[i], tab.HashSize)
		}
	}
	for _, id := range ids {
		if err := d.f32s(tab.Weights.Row(int(id))); err != nil {
			return err
		}
		tab.SyncRow(int(id))
	}
	flag, err := d.u8()
	if err != nil {
		return err
	}
	if (flag == 1) != (acc != nil) {
		return fmt.Errorf("ckpt: shard %s optimizer-state flag %d does not match state", d.file, flag)
	}
	if acc != nil {
		for _, id := range ids {
			if err := d.f32s(acc[id : id+1]); err != nil {
				return err
			}
		}
	}
	return d.done()
}

// ---- save ----

// SaveFull writes a full checkpoint of the state at st.Step and resets
// the given dirty trackers (the checkpoint covers everything).
func (s *Store) SaveFull(st *ModelState, dirty []*Dirty) (SaveInfo, error) {
	return s.save(st, dirty, func(*Manifest) bool { return true })
}

// SaveDelta writes an incremental checkpoint carrying only the rows the
// trackers have seen touched since the last save, chained to the latest
// checkpoint. It fails on an empty store (a delta needs a base).
func (s *Store) SaveDelta(st *ModelState, dirty []*Dirty) (SaveInfo, error) {
	return s.save(st, dirty, func(*Manifest) bool { return false })
}

// AutoSave picks the checkpoint kind: full when the store is empty, no
// trackers exist, or the delta chain has reached fullEvery links (the
// periodic compaction); delta otherwise.
func (s *Store) AutoSave(st *ModelState, dirty []*Dirty, fullEvery int) (SaveInfo, error) {
	return s.save(st, dirty, func(latest *Manifest) bool {
		return latest == nil || dirty == nil || fullEvery > 0 && latest.Chain+1 >= fullEvery
	})
}

// save writes one checkpoint, listing the store once: pickFull reports,
// given the latest checkpoint's manifest (nil for an empty store),
// whether to write a full checkpoint rather than a delta chained to it.
func (s *Store) save(st *ModelState, dirty []*Dirty, pickFull func(latest *Manifest) bool) (SaveInfo, error) {
	t0 := telemetry.Now()
	if err := st.validate(); err != nil {
		return SaveInfo{}, err
	}
	// One checkpoint per step: a second save at the latest step would
	// either chain a delta to itself or replace a directory its successor
	// pins by Merkle root, and both leave a store that no longer restores.
	baseName, base, err := s.Latest()
	if err != nil {
		return SaveInfo{}, err
	}
	if base != nil && base.Step == st.Step {
		return SaveInfo{}, fmt.Errorf("ckpt: step %d is already checkpointed as %s; refusing a second save at the same step", st.Step, baseName)
	}
	full := pickFull(base)
	kind := KindFull
	if !full {
		kind = KindDelta
	}
	man := Manifest{
		Version: 1, Step: st.Step, Kind: kind,
		Ranks: max(st.Ranks, 1), Model: fingerprintOf(st),
	}
	if !full {
		if len(dirty) != len(st.Tables) {
			return SaveInfo{}, fmt.Errorf("ckpt: %d dirty trackers for %d tables", len(dirty), len(st.Tables))
		}
		if base == nil {
			return SaveInfo{}, fmt.Errorf("ckpt: delta checkpoint needs a base; store is empty")
		}
		man.Base, man.BaseRoot, man.Chain = baseName, base.Root, base.Chain+1
	}

	name := ckName(st.Step, kind)
	tmp := filepath.Join(s.dir, name+".tmp")
	if err := os.RemoveAll(tmp); err != nil {
		return SaveInfo{}, fmt.Errorf("ckpt: clearing stale temp dir: %w", err)
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return SaveInfo{}, fmt.Errorf("ckpt: creating checkpoint dir: %w", err)
	}

	var info SaveInfo
	var e enc
	writeShard := func(file string, table, ownerRank, rows int) error {
		sum := sha256.Sum256(e.buf)
		if err := os.WriteFile(filepath.Join(tmp, file), e.buf, 0o644); err != nil {
			return fmt.Errorf("ckpt: writing shard %s: %w", file, err)
		}
		man.Entries = append(man.Entries, Entry{
			File: file, Bytes: int64(len(e.buf)), SHA256: hex.EncodeToString(sum[:]),
			Table: table, Rows: rows, OwnerRank: ownerRank,
		})
		info.Files++
		info.Bytes += int64(len(e.buf))
		return nil
	}

	// Dense replica + dense optimizer state travels in every checkpoint
	// (it is dense in time: every step touches all of it).
	encodeDense(&e, st)
	if err := writeShard("dense.bin", -1, 0, 0); err != nil {
		return SaveInfo{}, err
	}
	for ti := range st.Tables {
		if full {
			encodeTableFull(&e, st, ti)
			if err := writeShard(fmt.Sprintf("table-%04d.full", ti), ti, st.ownerOf(ti), st.Tables[ti].HashSize); err != nil {
				return SaveInfo{}, err
			}
			info.Rows += st.Tables[ti].HashSize
		} else {
			if dirty[ti] == nil || dirty[ti].Count() == 0 {
				continue // untouched table: nothing to record
			}
			encodeTableDelta(&e, st, ti, dirty[ti])
			if err := writeShard(fmt.Sprintf("table-%04d.delta", ti), ti, st.ownerOf(ti), dirty[ti].Count()); err != nil {
				return SaveInfo{}, err
			}
			info.Rows += dirty[ti].Count()
		}
	}

	man.Root = merkleRootHex(man.Entries)
	js, err := json.MarshalIndent(&man, "", "  ")
	if err != nil {
		return SaveInfo{}, err
	}
	js = append(js, '\n')
	if err := os.WriteFile(filepath.Join(tmp, manifestName), js, 0o644); err != nil {
		return SaveInfo{}, fmt.Errorf("ckpt: writing manifest: %w", err)
	}
	final := filepath.Join(s.dir, name)
	if err := os.RemoveAll(final); err != nil {
		return SaveInfo{}, fmt.Errorf("ckpt: clearing previous %s: %w", name, err)
	}
	// The rename publishes the checkpoint atomically: List/Latest only
	// ever see directories whose manifest is fully written.
	if err := os.Rename(tmp, final); err != nil {
		return SaveInfo{}, fmt.Errorf("ckpt: publishing checkpoint: %w", err)
	}

	for _, d := range dirty {
		if d != nil {
			d.Reset()
		}
	}
	t1 := telemetry.Now()
	info.Name, info.Step, info.Kind, info.Root = name, st.Step, kind, man.Root
	info.Wall = time.Duration(t1 - t0)
	s.trace.Emit(s.shard, telemetry.PhaseCheckpoint, t0, t1)
	s.saves.Inc()
	if full {
		s.fullSaves.Inc()
	} else {
		s.deltaRowsC.Add(int64(info.Rows))
	}
	s.bytesWritten.Add(info.Bytes)
	s.saveNs.Add(t1 - t0)
	return info, nil
}

// ---- restore ----

// Restore rebuilds the latest checkpoint's state into st: it resolves
// the delta chain back to its full base, verifies every manifest root,
// chain link, and shard hash, and applies base-then-deltas in step
// order. st must be shaped like the state that was saved (same params,
// tables, optimizer); st.Step is set to the restored step.
func (s *Store) Restore(st *ModelState) (RestoreInfo, error) {
	name, man, err := s.Latest()
	if err != nil {
		return RestoreInfo{}, err
	}
	if man == nil {
		return RestoreInfo{}, ErrNoCheckpoint
	}
	return s.RestoreFrom(name, st)
}

// RestoreFrom is Restore anchored at a specific checkpoint name.
func (s *Store) RestoreFrom(name string, st *ModelState) (RestoreInfo, error) {
	t0 := telemetry.Now()
	if err := st.validate(); err != nil {
		return RestoreInfo{}, err
	}
	// Resolve the chain tip → base; verify each link's pinned root.
	var chain []string
	var mans []*Manifest
	cur := name
	for {
		man, err := s.readManifest(cur)
		if err != nil {
			return RestoreInfo{}, err
		}
		if err := checkFingerprint(cur, man, st); err != nil {
			return RestoreInfo{}, err
		}
		chain = append(chain, cur)
		mans = append(mans, man)
		if man.Kind == KindFull {
			break
		}
		if man.Base == "" {
			return RestoreInfo{}, fmt.Errorf("ckpt: delta %s has no base link", cur)
		}
		base, err := s.readManifest(man.Base)
		if err != nil {
			return RestoreInfo{}, err
		}
		if base.Root != man.BaseRoot {
			return RestoreInfo{}, fmt.Errorf("ckpt: %s pins base root %s, but %s has root %s",
				cur, man.BaseRoot, man.Base, base.Root)
		}
		cur = man.Base
	}

	var info RestoreInfo
	for i := len(chain) - 1; i >= 0; i-- { // base first, deltas ascending
		ckDir, man := chain[i], mans[i]
		for _, ent := range man.Entries {
			raw, err := os.ReadFile(filepath.Join(s.dir, ckDir, ent.File))
			if err != nil {
				return RestoreInfo{}, fmt.Errorf("ckpt: reading shard %s/%s: %w", ckDir, ent.File, err)
			}
			if int64(len(raw)) != ent.Bytes {
				return RestoreInfo{}, fmt.Errorf("ckpt: shard %s/%s is %d bytes, manifest says %d",
					ckDir, ent.File, len(raw), ent.Bytes)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != ent.SHA256 {
				return RestoreInfo{}, fmt.Errorf("ckpt: shard %s/%s fails content verification (hash %s, manifest pins %s)",
					ckDir, ent.File, got, ent.SHA256)
			}
			d := &dec{buf: raw, file: ckDir + "/" + ent.File}
			if ent.Table < 0 {
				err = decodeDense(d, st)
			} else {
				err = decodeTable(d, st, ent.Table)
			}
			if err != nil {
				return RestoreInfo{}, err
			}
			info.Files++
			info.Bytes += int64(len(raw))
		}
	}

	tip := mans[0]
	st.Step = tip.Step
	t1 := telemetry.Now()
	info.Name, info.Step, info.Chain, info.Root = name, tip.Step, len(chain), tip.Root
	info.Wall = time.Duration(t1 - t0)
	s.trace.Emit(s.shard, telemetry.PhaseRestore, t0, t1)
	s.restores.Inc()
	s.bytesRestored.Add(info.Bytes)
	s.restoreNs.Add(t1 - t0)
	return info, nil
}

// Verify re-checks every completed checkpoint in the store: manifest
// Merkle roots, base links, and each shard's size and content hash.
func (s *Store) Verify() error {
	names, err := s.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		man, err := s.readManifest(name)
		if err != nil {
			return err
		}
		if man.Kind == KindDelta {
			base, err := s.readManifest(man.Base)
			if err != nil {
				return fmt.Errorf("ckpt: %s: base: %w", name, err)
			}
			if base.Root != man.BaseRoot {
				return fmt.Errorf("ckpt: %s pins base root %s, but %s has root %s",
					name, man.BaseRoot, man.Base, base.Root)
			}
		}
		for _, ent := range man.Entries {
			raw, err := os.ReadFile(filepath.Join(s.dir, name, ent.File))
			if err != nil {
				return fmt.Errorf("ckpt: reading shard %s/%s: %w", name, ent.File, err)
			}
			if int64(len(raw)) != ent.Bytes {
				return fmt.Errorf("ckpt: shard %s/%s is %d bytes, manifest says %d",
					name, ent.File, len(raw), ent.Bytes)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != ent.SHA256 {
				return fmt.Errorf("ckpt: shard %s/%s fails content verification (hash %s, manifest pins %s)",
					name, ent.File, got, ent.SHA256)
			}
		}
	}
	return nil
}

// String renders a one-line save summary.
func (i SaveInfo) String() string {
	return fmt.Sprintf("%s (%s, %d files, %d rows, %d bytes, root %s)",
		i.Name, i.Kind, i.Files, i.Rows, i.Bytes, shortHash(i.Root))
}

// String renders a one-line restore summary.
func (i RestoreInfo) String() string {
	return fmt.Sprintf("%s (chain %d, %d files, %d bytes, root %s)",
		i.Name, i.Chain, i.Files, i.Bytes, shortHash(i.Root))
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}
