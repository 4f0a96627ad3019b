package ingest

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// shuffleBatches sizes the bounded shuffle window in batches: the
// reservoir holds 4×BatchSize examples and every batch draws uniformly
// from it, decoupling batch composition from shard order.
const shuffleBatches = 4

// compactBelow sets the compaction rule: once fewer than 1/compactBelow
// of a held block's rows are live, the assembler copies the survivors
// into a compaction block and releases the source, so every block the
// reservoir pins keeps at least that share of its rows live.
const compactBelow = 8

// readAhead bounds the decoded blocks queued for the assembler; with
// each decoder holding at most one more, at most Readers+readAhead
// decoded blocks wait for admission.
const readAhead = 2

// Options tunes the staged reader pipeline.
type Options struct {
	// BatchSize is the assembled mini-batch size (required).
	BatchSize int
	// Readers is the parallel shard-decode stage width (default 1) —
	// the readers-per-trainer knob of the ingest_scaling experiment.
	Readers int
	// PrefetchDepth bounds the assembled-batch ring (default 4). The
	// assembler owns PrefetchDepth+1 recycled MiniBatches, minted at
	// Open; once all are lent out it blocks until the trainer recycles
	// one — the explicit backpressure that keeps the hot path
	// allocation-free.
	PrefetchDepth int
	// Dedup picks where the RecD-style within-batch unique-row view is
	// built: in the assembler, on every batch and off the trainer's
	// goroutine, or (false) in the trainer's sparse step. Every trainer
	// runs the dedup kernels either way, with the same bits; only the
	// assembler's view feeds the dedup-ratio meter.
	Dedup bool
	// Epochs bounds dataset passes; 0 streams forever.
	Epochs int
	// Seed drives shard-order and shuffle-buffer randomness. With
	// Readers=1 the emitted batch stream is a deterministic function of
	// (dataset, Options); with more readers shard arrival order races
	// and only the example set per epoch is deterministic.
	Seed int64
	// ReadBandwidth throttles each reader to this many bytes/second
	// (0 = unthrottled), emulating the storage/NIC bandwidth of a
	// disaggregated reader tier so reader-bound regimes are reproducible
	// on any machine.
	ReadBandwidth float64
	// Registry receives the pipeline's stage meters under "ingest/…".
	// Nil gets a private registry, so Meters keeps working standalone.
	Registry *telemetry.Registry
	// Trace, when non-nil, records stage spans (read, decode, shuffle
	// admission, batch assembly, trainer batch-wait) onto ShardCount
	// consecutive tracer shards starting at TraceShard: one per decoder,
	// one for the assembler, one for NextBatch waits.
	Trace      *telemetry.Tracer
	TraceShard int
}

// ShardCount returns how many tracer shards the pipeline records onto
// (after defaults: Readers decoders + assembler + batch-wait).
func (o Options) ShardCount() int {
	r := o.Readers
	if r <= 0 {
		r = 1
	}
	return r + 2
}

func (o *Options) defaults() error {
	if o.BatchSize <= 0 {
		return fmt.Errorf("ingest: BatchSize must be positive")
	}
	if o.Readers <= 0 {
		o.Readers = 1
	}
	if o.PrefetchDepth <= 0 {
		o.PrefetchDepth = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return nil
}

// MeterSnapshot is a point-in-time copy of the pipeline's per-stage
// meters. Stage seconds are summed across goroutines (Readers>1 can make
// ReadSeconds exceed wall time).
type MeterSnapshot struct {
	BytesRead       int64   // shard bytes read from disk
	ReadSeconds     float64 // time in ReadAt + bandwidth throttle
	DecodeSeconds   float64 // time parsing shard images
	ExamplesDecoded int64
	BatchesOut      int64
	TotalIndices    int64   // sparse indices through assembly
	UniqueIndices   int64   // after within-batch dedup (== Total when off)
	StarvedSeconds  float64 // NextBatch time blocked on an empty ring
	WallSeconds     float64 // first NextBatch call to the latest one
	OccupancySum    int64   // filled-ring depth summed over NextBatch calls
	OccupancyCap    int     // ring capacity (PrefetchDepth)
	NextCalls       int64
}

// ReadMBps returns the decode stage's achieved shard-read bandwidth.
func (m MeterSnapshot) ReadMBps() float64 {
	if m.ReadSeconds == 0 {
		return 0
	}
	return float64(m.BytesRead) / m.ReadSeconds / (1 << 20)
}

// DedupRatio returns total/unique sparse indices through assembly — the
// RecD dedup win. Exactly 1 when every index in every batch is unique
// (or when dedup is off).
func (m MeterSnapshot) DedupRatio() float64 {
	if m.UniqueIndices == 0 {
		return 1
	}
	return float64(m.TotalIndices) / float64(m.UniqueIndices)
}

// StarvationFrac returns the fraction of trainer wall time spent blocked
// waiting for a batch — >0 means the pipeline is reader-bound.
func (m MeterSnapshot) StarvationFrac() float64 {
	if m.WallSeconds == 0 {
		return 0
	}
	return m.StarvedSeconds / m.WallSeconds
}

// Occupancy returns the mean filled-ring depth as a fraction of capacity,
// sampled at every NextBatch: near 1 means the trainer is the bottleneck,
// near 0 means the readers are.
func (m MeterSnapshot) Occupancy() float64 {
	if m.NextCalls == 0 || m.OccupancyCap == 0 {
		return 0
	}
	return float64(m.OccupancySum) / float64(m.NextCalls) / float64(m.OccupancyCap)
}

// ref is one shuffle-reservoir entry: row row of a held block. The
// reservoir holds references, not copies, so an example's bytes are
// copied once after decode: from its block into the batch that draws it.
type ref struct {
	blk *block
	row int
}

// reservoir is the assembler's bounded shuffle window.
type reservoir struct {
	refs []ref
	held []*block // every block refs points into, the open one included
	// open is the compaction block still taking rows (nil when none is);
	// it closes at closeAt rows, 4×BatchSize. Compaction blocks are the
	// assembler's own: they recycle through free, not through the
	// decoders' list, so neither kind's slabs grow to the other's size.
	open    *block
	closeAt int
	free    []*block
}

// Pipeline is the staged reader: parallel shard decode → bounded shuffle
// buffer → batch assembly (with optional RecD dedup) into a recycled
// prefetch ring. It implements core.BatchSource; Close releases the
// stage goroutines.
type Pipeline struct {
	ds  *Dataset
	cfg core.Config
	opt Options

	shardCh   chan int
	blockCh   chan *block
	batchCh   chan *core.MiniBatch
	freeBatch chan *core.MiniBatch // PrefetchDepth+1 batches, minted at Open

	// free holds released blocks; a decoder mints a block only when it
	// is empty.
	freeMu sync.Mutex
	free   []*block

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	err      atomic.Value // first stage error, type error

	// Meters live in a telemetry.Registry ("ingest/…"); the pointers are
	// resolved once at Open so the hot paths stay single atomic adds.
	reg                               *telemetry.Registry
	bytesRead, readNanos, decodeNanos *telemetry.Counter
	examplesDecoded, batchesOut       *telemetry.Counter
	totalIdx, uniqueIdx               *telemetry.Counter
	starvedNanos, occSum, nextCalls   *telemetry.Counter
	blocksMinted, rowsCompacted       *telemetry.Counter
	// firstNext/lastNext bound the trainer's measurement window, in
	// telemetry-clock nanos — the same monotonic base as starvedNanos and
	// every span, so StarvationFrac and the attribution report agree.
	firstNext, lastNext *telemetry.Gauge
}

// Open validates cfg against the dataset and starts the stage goroutines:
// one shard-order coordinator, opt.Readers decoders, one assembler.
func Open(ds *Dataset, cfg core.Config, opt Options) (*Pipeline, error) {
	if err := opt.defaults(); err != nil {
		return nil, err
	}
	if err := ds.CompatibleWith(cfg); err != nil {
		return nil, err
	}
	for _, sh := range ds.Manifest.Shards {
		if sh.Examples < 1 {
			return nil, fmt.Errorf("ingest: shard %s with zero examples", sh.File)
		}
	}
	p := &Pipeline{
		ds:        ds,
		cfg:       cfg,
		opt:       opt,
		shardCh:   make(chan int),
		blockCh:   make(chan *block, readAhead),
		batchCh:   make(chan *core.MiniBatch, opt.PrefetchDepth),
		freeBatch: make(chan *core.MiniBatch, opt.PrefetchDepth+2),
		stop:      make(chan struct{}),
	}
	for range opt.PrefetchDepth + 1 {
		p.freeBatch <- &core.MiniBatch{}
	}
	reg := opt.Registry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	p.reg = reg
	p.bytesRead = reg.Counter("ingest/bytes_read")
	p.readNanos = reg.Counter("ingest/read_ns")
	p.decodeNanos = reg.Counter("ingest/decode_ns")
	p.examplesDecoded = reg.Counter("ingest/examples_decoded")
	p.batchesOut = reg.Counter("ingest/batches_out")
	p.totalIdx = reg.Counter("ingest/indices_total")
	p.uniqueIdx = reg.Counter("ingest/indices_unique")
	p.starvedNanos = reg.Counter("ingest/starved_ns")
	p.occSum = reg.Counter("ingest/occupancy_sum")
	p.nextCalls = reg.Counter("ingest/next_calls")
	p.blocksMinted = reg.Counter("ingest/blocks_minted")
	p.rowsCompacted = reg.Counter("ingest/rows_compacted")
	p.firstNext = reg.Gauge("ingest/first_next_ns")
	p.lastNext = reg.Gauge("ingest/last_next_ns")
	reg.RegisterFunc("ingest/ring_depth", func() int64 { return int64(len(p.batchCh)) })
	reg.RegisterFunc("ingest/ring_cap", func() int64 { return int64(p.opt.PrefetchDepth) })
	if t := opt.Trace; t != nil {
		for r := 0; r < opt.Readers; r++ {
			t.NameShard(opt.TraceShard+r, fmt.Sprintf("ingest decoder %d", r))
		}
		t.NameShard(opt.TraceShard+opt.Readers, "ingest assembler")
		t.NameShard(opt.TraceShard+opt.Readers+1, "ingest batch-wait")
	}
	p.wg.Add(1)
	go p.coordinate()
	var decoders sync.WaitGroup
	for r := 0; r < opt.Readers; r++ {
		p.wg.Add(1)
		decoders.Add(1)
		go func(r int) {
			defer decoders.Done()
			p.decodeLoop(opt.TraceShard + r)
		}(r)
	}
	go func() { // close the block stream once every decoder drains
		decoders.Wait()
		close(p.blockCh)
	}()
	p.wg.Add(1)
	go p.assemble()
	return p, nil
}

// fail records the first stage error and tears the pipeline down.
func (p *Pipeline) fail(err error) {
	p.err.CompareAndSwap(nil, err)
	p.stopOnce.Do(func() { close(p.stop) })
}

// coordinate feeds shard indices for each epoch in a per-epoch shuffled
// order, then closes the work queue.
func (p *Pipeline) coordinate() {
	defer p.wg.Done()
	defer close(p.shardCh)
	rng := xrand.New(p.opt.Seed)
	n := len(p.ds.Manifest.Shards)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; p.opt.Epochs == 0 || epoch < p.opt.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, si := range order {
			select {
			case p.shardCh <- si:
			case <-p.stop:
				return
			}
		}
	}
}

// decodeLoop is one reader of the parallel decode stage: claim a shard,
// read it (throttled to the emulated storage bandwidth) into this
// decoder's reusable buffer, parse it into a free block, and hand the
// block downstream. shard is this decoder's tracer shard (it is the only
// goroutine recording onto it).
func (p *Pipeline) decodeLoop(shard int) {
	defer p.wg.Done()
	var raw []byte
	for {
		var si int
		var ok bool
		select {
		case si, ok = <-p.shardCh:
			if !ok {
				return
			}
		case <-p.stop:
			return
		}

		sh := p.ds.Manifest.Shards[si]
		t0 := telemetry.Now()
		if cap(raw) < int(sh.Bytes) {
			raw = make([]byte, sh.Bytes)
		}
		raw = raw[:sh.Bytes]
		if _, err := p.ds.files[si].ReadAt(raw, 0); err != nil {
			p.fail(fmt.Errorf("ingest: reading shard %s: %w", sh.File, err))
			return
		}
		if p.opt.ReadBandwidth > 0 {
			want := time.Duration(float64(sh.Bytes) / p.opt.ReadBandwidth * float64(time.Second))
			if spent := time.Duration(telemetry.Now() - t0); spent < want {
				select {
				case <-time.After(want - spent):
				case <-p.stop:
					return
				}
			}
		}
		t1 := telemetry.Now()
		p.readNanos.Add(t1 - t0)
		p.bytesRead.Add(sh.Bytes)
		p.opt.Trace.Emit(shard, telemetry.PhaseIngestRead, t0, t1)

		blk := p.takeBlock()
		if err := decodeShard(raw, &p.ds.Manifest, blk); err != nil {
			p.fail(fmt.Errorf("ingest: decoding shard %s: %w", sh.File, err))
			return
		}
		t2 := telemetry.Now()
		p.decodeNanos.Add(t2 - t1)
		p.examplesDecoded.Add(int64(blk.n))
		p.opt.Trace.Emit(shard, telemetry.PhaseIngestDecode, t1, t2)

		select {
		case p.blockCh <- blk:
		case <-p.stop:
			return
		}
	}
}

// takeBlock pops a released block, or mints one when none is free. It
// never waits: the decoders' read-ahead is bounded by the block channel
// and the blocks the reservoir pins by the compaction rule, so the
// blocks in use stay bounded without a fixed pool (which would deadlock:
// the assembler waits for whole blocks before it draws the rows that
// would free one).
func (p *Pipeline) takeBlock() *block {
	p.freeMu.Lock()
	defer p.freeMu.Unlock()
	if n := len(p.free); n > 0 {
		blk := p.free[n-1]
		p.free = p.free[:n-1]
		return blk
	}
	p.blocksMinted.Inc()
	return &block{}
}

// releaseBlock returns a block no reference points into.
func (p *Pipeline) releaseBlock(blk *block) {
	p.freeMu.Lock()
	p.free = append(p.free, blk)
	p.freeMu.Unlock()
}

// assemble is the shuffle + batch-assembly stage: it keeps the bounded
// reservoir of (block, row) references topped up from decoded blocks,
// draws uniform examples into a recycled MiniBatch, optionally attaches
// the dedup view, and publishes the batch. After each batch it releases
// the blocks whose rows are all drawn and compacts those below the
// 1/compactBelow rule. It closes the batch ring when the dataset is
// exhausted.
func (p *Pipeline) assemble() {
	defer p.wg.Done()
	rng := xrand.New(p.opt.Seed + 1)
	window := shuffleBatches * p.opt.BatchSize
	res := &reservoir{closeAt: window}
	asmShard := p.opt.TraceShard + p.opt.Readers // this goroutine's tracer shard
	open := true
	for {
		// Fill the reservoir to the shuffle window before cutting a
		// batch. The fill always blocks for whole blocks, never polls, so
		// batch composition is a pure function of block arrival order —
		// with one reader, of (dataset, Options) alone.
		for open && len(res.refs) < window {
			select {
			case blk, ok := <-p.blockCh:
				if !ok {
					open = false
				} else {
					t0 := telemetry.Now()
					p.admit(res, blk)
					p.opt.Trace.Emit(asmShard, telemetry.PhaseIngestShuffle, t0, telemetry.Now())
				}
			case <-p.stop:
				return
			}
		}
		if len(res.refs) == 0 {
			if !open {
				close(p.batchCh)
				return
			}
			continue
		}
		bs := min(p.opt.BatchSize, len(res.refs)) // short: the final batch of a finite stream
		mb := p.claimBatch()
		if mb == nil {
			return // stopped
		}
		tFill := telemetry.Now()
		p.fillBatch(mb, bs, res, rng)
		p.sweep(res)
		p.opt.Trace.Emit(asmShard, telemetry.PhaseIngestAssemble, tFill, telemetry.Now())
		select {
		case p.batchCh <- mb:
			p.batchesOut.Add(1)
		case <-p.stop:
			return
		}
	}
}

// admit appends a reference to each of blk's rows to the reservoir.
func (p *Pipeline) admit(res *reservoir, blk *block) {
	if blk.n == 0 {
		p.releaseBlock(blk)
		return
	}
	for i := 0; i < blk.n; i++ {
		res.refs = append(res.refs, ref{blk, i})
	}
	blk.live = blk.n
	res.held = append(res.held, blk)
}

// sweep releases every held block whose rows have all been drawn, and
// compacts every closed block with fewer than 1/compactBelow of its rows
// live: one pass over the reservoir copies those blocks' survivors into
// the open compaction block and rewrites their references in place.
// Positions do not move, so the draws that follow pick the same
// examples as if nothing had been copied.
func (p *Pipeline) sweep(res *reservoir) {
	moving := false
	for _, b := range res.held {
		if b != res.open && b.live > 0 && b.live*compactBelow < b.n {
			b.moving, moving = true, true
		}
	}
	if moving {
		dense := p.cfg.DenseFeatures
		var moved int64
		for j, r := range res.refs {
			if !r.blk.moving {
				continue
			}
			if res.open == nil {
				res.open = p.takeCompaction(res)
				res.held = append(res.held, res.open)
			}
			dst := res.open
			res.refs[j] = ref{dst, dst.appendRow(r.blk, r.row, dense)}
			dst.live++
			r.blk.live--
			moved++
			if dst.n >= res.closeAt {
				res.open = nil
			}
		}
		p.rowsCompacted.Add(moved)
	}
	kept := res.held[:0]
	for _, b := range res.held {
		b.moving = false
		if b.live > 0 {
			kept = append(kept, b)
			continue
		}
		if b == res.open {
			res.open = nil
		}
		if b.compaction {
			res.free = append(res.free, b)
		} else {
			p.releaseBlock(b)
		}
	}
	clear(res.held[len(kept):])
	res.held = kept
}

// takeCompaction returns an empty compaction block, recycled if one is
// free.
func (p *Pipeline) takeCompaction(res *reservoir) *block {
	var blk *block
	if n := len(res.free); n > 0 {
		blk = res.free[n-1]
		res.free = res.free[:n-1]
	} else {
		p.blocksMinted.Inc()
		blk = &block{compaction: true}
	}
	blk.reset(p.cfg.NumSparse())
	return blk
}

// claimBatch takes the free ring's oldest MiniBatch, blocking while the
// trainer holds all of them (the backpressure edge). The ring is FIFO, so
// the first PrefetchDepth+1 claims get PrefetchDepth+1 distinct batches
// and every batch is first filled during start-up.
func (p *Pipeline) claimBatch() *core.MiniBatch {
	select {
	case mb := <-p.freeBatch:
		return mb
	case <-p.stop:
		return nil
	}
}

// fillBatch assembles bs uniformly drawn reservoir examples into mb,
// reusing its buffers, copying each straight from its block.
func (p *Pipeline) fillBatch(mb *core.MiniBatch, bs int, res *reservoir, rng *xrand.RNG) {
	cfg := &p.cfg
	dense := cfg.DenseFeatures
	if mb.Dense == nil || mb.Dense.Rows != bs || mb.Dense.Cols != dense {
		mb.Dense = tensor.New(bs, dense)
	}
	if len(mb.Bags) != cfg.NumSparse() {
		mb.Bags = make([]embedding.Bag, cfg.NumSparse())
	}
	if cap(mb.Labels) < bs {
		mb.Labels = make([]float32, bs)
	}
	mb.Labels = mb.Labels[:bs]

	// Each draw swaps the drawn reference with the window's last and
	// shrinks the window by one, so the draws collect at the end of
	// res.refs, the first drawn last.
	r := res.refs
	for range bs {
		j, last := rng.Intn(len(r)), len(r)-1
		r[j], r[last] = r[last], r[j]
		r = r[:last]
	}
	drawn := res.refs[len(r):]
	res.refs = r
	for k := range bs {
		d := drawn[bs-1-k]
		copy(mb.Dense.Row(k), d.blk.dense[d.row*dense:(d.row+1)*dense])
		mb.Labels[k] = float32(d.blk.labels[d.row])
		d.blk.live--
	}
	for f := range mb.Bags {
		bag := &mb.Bags[f]
		idx, offs := bag.Indices[:0], append(bag.Offsets[:0], 0)
		for k := bs - 1; k >= 0; k-- {
			d := drawn[k]
			off := d.blk.featOff[f]
			idx = append(idx, d.blk.featIdx[f][off[d.row]:off[d.row+1]]...)
			offs = append(offs, int32(len(idx)))
		}
		bag.Indices, bag.Offsets = idx, offs
	}

	var total, unique int64
	if p.opt.Dedup {
		mb.AttachDedup()
		for f := range mb.Bags {
			total += int64(len(mb.Bags[f].Indices))
			unique += int64(len(mb.Dedup[f].Unique))
		}
	} else {
		mb.DetachDedup()
		for f := range mb.Bags {
			total += int64(len(mb.Bags[f].Indices))
		}
		unique = total
	}
	p.totalIdx.Add(total)
	p.uniqueIdx.Add(unique)
}

// NextBatch implements core.BatchSource. It meters ring occupancy and the
// time spent starved (blocked on an empty ring). It reads the telemetry
// clock — the same monotonic base as the trainers' step records — once
// on entry and, only when it has to wait, once more when the batch
// arrives, so StarvationFrac composes with the attribution report
// instead of mixing wall- and monotonic-clock windows.
func (p *Pipeline) NextBatch() (*core.MiniBatch, error) {
	now := telemetry.Now()
	p.firstNext.SetOnce(now)
	p.nextCalls.Inc()
	p.occSum.Add(int64(len(p.batchCh)))

	var mb *core.MiniBatch
	var ok bool
	select {
	case mb, ok = <-p.batchCh: // fast path: ring has a batch ready
	default:
		t0 := now
		select {
		case mb, ok = <-p.batchCh:
		case <-p.stop:
			if err := p.takeErr(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("ingest: pipeline closed")
		}
		now = telemetry.Now()
		p.starvedNanos.Add(now - t0)
		p.opt.Trace.Emit(p.opt.TraceShard+p.opt.Readers+1, telemetry.PhaseBatchWait, t0, now)
	}
	p.lastNext.Set(now)
	if !ok {
		if err := p.takeErr(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	return mb, nil
}

func (p *Pipeline) takeErr() error {
	if v := p.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Recycle implements core.BatchSource: the batch re-enters the free ring
// for in-place refill. Foreign or surplus batches are dropped.
func (p *Pipeline) Recycle(mb *core.MiniBatch) {
	if mb == nil {
		return
	}
	select {
	case p.freeBatch <- mb:
	default:
	}
}

// Registry returns the registry holding the pipeline's "ingest/…"
// meters (the one passed in Options, or the private default).
func (p *Pipeline) Registry() *telemetry.Registry { return p.reg }

// Meters returns a snapshot of the per-stage meters. It is a shim over
// the telemetry registry, kept so existing callers and experiments read
// the same struct they always did.
func (p *Pipeline) Meters() MeterSnapshot {
	m := MeterSnapshot{
		BytesRead:       p.bytesRead.Load(),
		ReadSeconds:     time.Duration(p.readNanos.Load()).Seconds(),
		DecodeSeconds:   time.Duration(p.decodeNanos.Load()).Seconds(),
		ExamplesDecoded: p.examplesDecoded.Load(),
		BatchesOut:      p.batchesOut.Load(),
		TotalIndices:    p.totalIdx.Load(),
		UniqueIndices:   p.uniqueIdx.Load(),
		StarvedSeconds:  time.Duration(p.starvedNanos.Load()).Seconds(),
		OccupancySum:    p.occSum.Load(),
		OccupancyCap:    p.opt.PrefetchDepth,
		NextCalls:       p.nextCalls.Load(),
	}
	if first := p.firstNext.Load(); first != 0 {
		m.WallSeconds = time.Duration(p.lastNext.Load() - first).Seconds()
	}
	return m
}

// Close stops every stage goroutine and waits for them to exit. The
// dataset handle is the caller's to close.
func (p *Pipeline) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
}
