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

// Options tunes the staged reader pipeline.
type Options struct {
	// BatchSize is the assembled mini-batch size (required).
	BatchSize int
	// Readers is the parallel shard-decode stage width (default 1) —
	// the readers-per-trainer knob of the ingest_scaling experiment.
	Readers int
	// PrefetchDepth bounds the assembled-batch ring (default 4). The
	// assembler owns at most PrefetchDepth+1 recycled MiniBatches; once
	// all are lent out it blocks until the trainer recycles one — the
	// explicit backpressure that keeps the hot path allocation-free.
	PrefetchDepth int
	// ShuffleWindow is the bounded shuffle buffer size in examples
	// (default 4×BatchSize; raised to BatchSize if smaller). Batches
	// draw uniformly from the window, decoupling batch composition from
	// shard order.
	ShuffleWindow int
	// Dedup builds the RecD-style within-batch unique-row view on every
	// assembled batch, switching both trainers onto the dedup kernels.
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
	if o.ShuffleWindow <= 0 {
		o.ShuffleWindow = 4 * o.BatchSize
	}
	if o.ShuffleWindow < o.BatchSize {
		o.ShuffleWindow = o.BatchSize
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

// exSlot is one shuffle-buffer entry: an example copied out of its
// decoded block into reservoir-owned storage. Copying at admission lets a
// block return to the decode stage the moment it is admitted — no
// pinning, so the bounded reservoir can never starve the block free list
// — and slots recycle through the assembler's free list, so steady-state
// admission is allocation-free.
type exSlot struct {
	dense []float32
	label float32
	idx   [][]int32 // per sparse feature
}

// Pipeline is the staged reader: parallel shard decode → bounded shuffle
// buffer → batch assembly (with optional RecD dedup) into a recycled
// prefetch ring. It implements core.BatchSource; Close releases the
// stage goroutines.
type Pipeline struct {
	ds  *Dataset
	cfg core.Config
	opt Options

	shardCh    chan int
	blockCh    chan *block
	freeBlocks chan *block
	batchCh    chan *core.MiniBatch
	freeBatch  chan *core.MiniBatch
	allocated  int // MiniBatches minted by the assembler

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
	nBlocks := opt.Readers + 2
	p := &Pipeline{
		ds:         ds,
		cfg:        cfg,
		opt:        opt,
		shardCh:    make(chan int),
		blockCh:    make(chan *block, nBlocks),
		freeBlocks: make(chan *block, nBlocks),
		batchCh:    make(chan *core.MiniBatch, opt.PrefetchDepth),
		freeBatch:  make(chan *core.MiniBatch, opt.PrefetchDepth+2),
		stop:       make(chan struct{}),
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
	for i := 0; i < nBlocks; i++ {
		p.freeBlocks <- &block{}
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
// read it (throttled to the emulated storage bandwidth) into the block's
// reusable buffer, parse, and hand the block downstream. shard is this
// decoder's tracer shard (it is the only goroutine recording onto it).
func (p *Pipeline) decodeLoop(shard int) {
	defer p.wg.Done()
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
		var blk *block
		select {
		case blk = <-p.freeBlocks:
		case <-p.stop:
			return
		}

		sh := p.ds.Manifest.Shards[si]
		t0 := telemetry.Now()
		if cap(blk.raw) < int(sh.Bytes) {
			blk.raw = make([]byte, sh.Bytes)
		}
		blk.raw = blk.raw[:sh.Bytes]
		if _, err := p.ds.files[si].ReadAt(blk.raw, 0); err != nil {
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

		if err := decodeShard(blk.raw, &p.ds.Manifest, blk); err != nil {
			p.fail(err)
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

// assemble is the shuffle + batch-assembly stage: it keeps the bounded
// reservoir topped up from decoded blocks, draws uniform examples into a
// recycled MiniBatch, optionally attaches the dedup view, and publishes
// the batch. It closes the batch ring when the dataset is exhausted.
func (p *Pipeline) assemble() {
	defer p.wg.Done()
	rng := xrand.New(p.opt.Seed + 1)
	var res []*exSlot   // shuffle reservoir
	var spare []*exSlot // recycled slots
	sparse := p.cfg.NumSparse()
	dense := p.cfg.DenseFeatures
	asmShard := p.opt.TraceShard + p.opt.Readers // this goroutine's tracer shard
	admit := func(blk *block) {
		t0 := telemetry.Now()
		for i := 0; i < blk.n; i++ {
			var s *exSlot
			if n := len(spare); n > 0 {
				s = spare[n-1]
				spare = spare[:n-1]
			} else {
				s = &exSlot{idx: make([][]int32, sparse)}
			}
			s.dense = append(s.dense[:0], blk.dense[i*dense:(i+1)*dense]...)
			s.label = float32(blk.labels[i])
			for f := 0; f < sparse; f++ {
				off := blk.featOff[f]
				s.idx[f] = append(s.idx[f][:0], blk.featIdx[f][off[i]:off[i+1]]...)
			}
			res = append(res, s)
		}
		p.opt.Trace.Emit(asmShard, telemetry.PhaseIngestShuffle, t0, telemetry.Now())
		select { // block fully copied out; hand it straight back
		case p.freeBlocks <- blk:
		default:
		}
	}
	open := true
	for {
		// Fill the reservoir to the shuffle window before cutting a
		// batch. The fill always blocks for whole blocks, never polls, so
		// batch composition is a pure function of block arrival order —
		// with one reader, of (dataset, Options) alone.
		for open && len(res) < p.opt.ShuffleWindow {
			select {
			case blk, ok := <-p.blockCh:
				if !ok {
					open = false
				} else {
					admit(blk)
				}
			case <-p.stop:
				return
			}
		}
		if len(res) == 0 {
			if !open {
				close(p.batchCh)
				return
			}
			continue
		}
		bs := p.opt.BatchSize
		if bs > len(res) {
			bs = len(res) // final partial batch of a finite stream
		}
		mb := p.claimBatch()
		if mb == nil {
			return // stopped
		}
		tFill := telemetry.Now()
		spare = p.fillBatch(mb, bs, &res, spare, rng)
		p.opt.Trace.Emit(asmShard, telemetry.PhaseIngestAssemble, tFill, telemetry.Now())
		select {
		case p.batchCh <- mb:
			p.batchesOut.Add(1)
		case <-p.stop:
			return
		}
	}
}

// claimBatch takes a recycled MiniBatch from the free ring, minting new
// ones only until the ring's batch budget is reached — after that it
// blocks until the trainer recycles (the backpressure edge).
func (p *Pipeline) claimBatch() *core.MiniBatch {
	select {
	case mb := <-p.freeBatch:
		return mb
	case <-p.stop:
		return nil
	default:
	}
	if p.allocated <= p.opt.PrefetchDepth {
		p.allocated++
		return &core.MiniBatch{}
	}
	select {
	case mb := <-p.freeBatch:
		return mb
	case <-p.stop:
		return nil
	}
}

// fillBatch assembles bs uniformly drawn reservoir examples into mb,
// reusing its buffers, and returns the drawn slots to the spare list.
func (p *Pipeline) fillBatch(mb *core.MiniBatch, bs int, res *[]*exSlot, spare []*exSlot, rng *xrand.RNG) []*exSlot {
	cfg := &p.cfg
	dense := cfg.DenseFeatures
	if mb.Dense == nil || mb.Dense.Rows != bs || mb.Dense.Cols != dense {
		mb.Dense = tensor.New(bs, dense)
	}
	if len(mb.Bags) != cfg.NumSparse() {
		mb.Bags = make([]embedding.Bag, cfg.NumSparse())
	}
	for f := range mb.Bags {
		mb.Bags[f].Indices = mb.Bags[f].Indices[:0]
		mb.Bags[f].Offsets = append(mb.Bags[f].Offsets[:0], 0)
	}
	if cap(mb.Labels) < bs {
		mb.Labels = make([]float32, bs)
	}
	mb.Labels = mb.Labels[:bs]

	r := *res
	for k := 0; k < bs; k++ {
		j := rng.Intn(len(r))
		s := r[j]
		r[j] = r[len(r)-1]
		r = r[:len(r)-1]

		copy(mb.Dense.Row(k), s.dense)
		mb.Labels[k] = s.label
		for f := range mb.Bags {
			bag := &mb.Bags[f]
			bag.Indices = append(bag.Indices, s.idx[f]...)
			bag.Offsets = append(bag.Offsets, int32(len(bag.Indices)))
		}
		spare = append(spare, s)
	}
	*res = r

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
	return spare
}

// NextBatch implements core.BatchSource. It meters ring occupancy and the
// time spent starved (blocked on an empty ring). All timestamps come
// from the telemetry clock — the same monotonic base as hybrid step
// timing — so StarvationFrac composes with the attribution report
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
		t0 := telemetry.Now()
		select {
		case mb, ok = <-p.batchCh:
		case <-p.stop:
			if err := p.takeErr(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("ingest: pipeline closed")
		}
		t1 := telemetry.Now()
		p.starvedNanos.Add(t1 - t0)
		p.opt.Trace.Emit(p.opt.TraceShard+p.opt.Readers+1, telemetry.PhaseBatchWait, t0, t1)
	}
	p.lastNext.Set(telemetry.Now())
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
