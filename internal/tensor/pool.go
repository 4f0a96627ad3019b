package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the persistent worker pool behind the parallel
// kernels. Design notes live in DESIGN.md; the short version:
//
//   - Workers are lazily started once and live for the process lifetime,
//     so the hot path never pays a goroutine spawn.
//   - A parallel invocation is described by a job carrying typed operands
//     (not a closure), so dispatching allocates nothing: closures passed
//     across goroutines escape to the heap, kernel kinds do not.
//   - Jobs are recycled through a free list (getJob/putJob), and workers
//     plus the submitting goroutine claim row chunks from a shared atomic
//     cursor, which load-balances skewed rows without per-chunk channel
//     traffic.

// kernelKind enumerates the range kernels the pool can run; kRange is
// the one whose body lives outside this package (Ranger).
type kernelKind uint8

const (
	kMatMul kernelKind = iota
	kMatMulBiasReLU
	kMatMulTransB
	kMatMulTransA
	kMatMulTransAAcc
	kEncodeHalf
	kDecodeHalf
	kRange
)

// convChunk is the element-block granularity for pooled dtype
// conversions: jobs partition the flat element space into blocks of
// this size and the row cursor walks blocks instead of matrix rows.
const convChunk = 4096

// job is one parallel kernel invocation over the row space [0, rows).
type job struct {
	kind kernelKind
	dst  *Matrix
	a, b *Matrix
	bias []float32
	relu bool

	// dtype-conversion operands (kEncodeHalf / kDecodeHalf)
	hu []uint16
	hf []float32
	dt DType

	r Ranger // kRange: the caller's own items

	// panel is kMatMulTransB's packed copy of b (packTransB), filled on
	// the submitting goroutine before any helper sees the job. It stays
	// with the job when it is recycled, so a steady stream of calls
	// packs without allocating; each concurrent call has its own job.
	panel []float32

	rows   int
	chunk  int
	cursor atomic.Int64
	done   sync.WaitGroup
}

// runRange executes the job's kernel over rows [r0, r1).
func (j *job) runRange(r0, r1 int) {
	switch j.kind {
	case kMatMul:
		matMulRange(j.dst, j.a, j.b, r0, r1)
	case kMatMulBiasReLU:
		matMulBiasReLURange(j.dst, j.a, j.b, j.bias, j.relu, r0, r1)
	case kMatMulTransB:
		matMulTransBRange(j.dst, j.a, j.b, j.panel, r0, r1)
	case kMatMulTransA:
		matMulTransARange(j.dst, j.a, j.b, r0, r1)
	case kMatMulTransAAcc:
		matMulTransAAccRange(j.dst, j.a, j.b, r0, r1)
	case kEncodeHalf:
		lo, hi := convRange(r0, r1, len(j.hf))
		Encode(j.dt, j.hu[lo:hi], j.hf[lo:hi])
	case kDecodeHalf:
		lo, hi := convRange(r0, r1, len(j.hu))
		Decode(j.dt, j.hf[lo:hi], j.hu[lo:hi])
	case kRange:
		j.r.RunRange(r0, r1)
	}
}

// convRange maps a block range onto element bounds clamped to n.
func convRange(r0, r1, n int) (int, int) {
	lo, hi := r0*convChunk, r1*convChunk
	if lo > n {
		lo = n
	}
	if hi > n {
		hi = n
	}
	return lo, hi
}

// drain claims chunks from the cursor until the row space is exhausted.
func (j *job) drain() {
	for {
		r0 := int(j.cursor.Add(int64(j.chunk))) - j.chunk
		if r0 >= j.rows {
			return
		}
		r1 := r0 + j.chunk
		if r1 > j.rows {
			r1 = j.rows
		}
		j.runRange(r0, r1)
	}
}

var (
	poolOnce    sync.Once
	poolCh      chan *job
	poolWorkers int
)

// freeJobs holds recycled jobs. It is a locked stack rather than a
// sync.Pool because a job carries its packed panel: a sync.Pool empties
// itself across garbage collections (and drops items at random under the
// race detector), which would reallocate panels on the serial path that
// the step's zero-allocation budget covers. It holds at most as many
// jobs as kernels ever ran at once.
var freeJobs struct {
	sync.Mutex
	stack []*job
}

func getJob() *job {
	freeJobs.Lock()
	defer freeJobs.Unlock()
	n := len(freeJobs.stack)
	if n == 0 {
		return new(job)
	}
	j := freeJobs.stack[n-1]
	freeJobs.stack = freeJobs.stack[:n-1]
	return j
}

// putJob drops j's operand references and recycles it.
func putJob(j *job) {
	j.dst, j.a, j.b, j.bias = nil, nil, nil, nil
	j.hu, j.hf, j.r = nil, nil, nil
	freeJobs.Lock()
	freeJobs.stack = append(freeJobs.stack, j)
	freeJobs.Unlock()
}

// startPool spawns the persistent helpers. The count is fixed at first
// use: GOMAXPROCS-1 helpers (the submitter is the remaining worker), with
// a floor of 2 so tests that raise GOMAXPROCS after init still exercise
// true cross-goroutine execution.
func startPool() {
	poolWorkers = max(runtime.GOMAXPROCS(0)-1, 2)
	poolCh = make(chan *job)
	for i := 0; i < poolWorkers; i++ {
		go func() {
			for j := range poolCh {
				j.drain()
				j.done.Done()
			}
		}()
	}
}

// serial reports whether a job of rows items and work estimated FLOPs
// stays on the submitting goroutine: too little work to repay the
// hand-off, nothing to split, or only one P to run on.
func serial(rows, work int) bool {
	return work < parallelThreshold || rows < 2 || runtime.GOMAXPROCS(0) < 2
}

// submit runs j (kind and operands set by the caller) over [0, rows) on
// the pool in cursor chunks of chunk items; chunk 0 picks ~4 chunks per
// participant, which keeps the cursor cheap while still smoothing uneven
// per-row cost. The job is recycled, so the path is allocation-free at
// steady state.
func submit(j *job, rows, chunk int) {
	poolOnce.Do(startPool)
	if chunk == 0 {
		chunk = max(rows/(4*(poolWorkers+1)), 1)
	}
	j.rows, j.chunk = rows, chunk
	j.cursor.Store(0)
	// Hand the job to idle helpers only: if every helper is busy (e.g.
	// several hybrid ranks issuing matmuls at once) the submitter simply
	// does the work itself, which self-balances the pool.
fanout:
	for i := 0; i < poolWorkers; i++ {
		j.done.Add(1)
		select {
		case poolCh <- j:
		default:
			j.done.Done()
			break fanout
		}
	}
	j.drain()
	j.done.Wait()
	putJob(j)
}

// dispatch runs the kernel serially when the FLOP estimate is below
// parallelThreshold (or only one P is available) and through the worker
// pool otherwise. Both paths allocate nothing at steady state.
func dispatch(kind kernelKind, dst, a, b *Matrix, bias []float32, relu bool, rows, work int) {
	if rows == 0 {
		return
	}
	j := getJob()
	j.kind, j.dst, j.a, j.b, j.bias, j.relu = kind, dst, a, b, bias, relu
	if kind == kMatMulTransB {
		j.panel = packTransB(j.panel, b)
	}
	if serial(rows, work) {
		j.runRange(0, rows)
		putJob(j)
		return
	}
	submit(j, rows, 0)
}

// dispatchConv runs a bulk dtype conversion over n elements, serially
// below the work threshold and through the worker pool above it. The
// conversion kernels cost a handful of integer ops per element, so the
// work estimate is 4*n to share parallelThreshold's FLOP scale.
func dispatchConv(kind kernelKind, dt DType, u []uint16, f []float32, n int) {
	if n == 0 {
		return
	}
	blocks := (n + convChunk - 1) / convChunk
	if serial(blocks, 4*n) {
		j := job{kind: kind, dt: dt, hu: u, hf: f}
		j.runRange(0, blocks)
		return
	}
	j := getJob()
	j.kind, j.dt, j.hu, j.hf = kind, dt, u, f
	submit(j, blocks, 0)
}

// Ranger is pool work that is not a matrix kernel: RunRange(lo, hi)
// processes items [lo, hi) of an index space the caller defines. Calls
// for disjoint ranges may run concurrently, so the items must share no
// mutable state.
type Ranger interface {
	RunRange(lo, hi int)
}

// RangeFansOut reports whether ParallelRange hands n items of perItem
// estimated FLOPs each to the pool. The gate is per item, not total:
// items are never split, so one item is the smallest unit a helper takes
// and it alone has to repay the hand-off.
func RangeFansOut(n, perItem int) bool { return !serial(n, perItem) }

// ParallelRange runs r over [0, n): inline as one RunRange(0, n) when
// RangeFansOut says no, otherwise item by item from the pool's shared
// cursor, every item on exactly one goroutine. It returns when all items
// are done. r rides the job as an interface, so a pointer receiver
// costs no allocation.
func ParallelRange(r Ranger, n, perItem int) {
	if !RangeFansOut(n, perItem) {
		r.RunRange(0, n)
		return
	}
	j := getJob()
	j.kind, j.r = kRange, r
	submit(j, n, 1)
}

// ParallelEncode narrows src into dst[:len(src)] using dt, spreading
// element blocks across the worker pool for large slices (bulk table
// re-quantization); small slices run serially and allocation-free.
func ParallelEncode(dt DType, dst []uint16, src []float32) {
	dispatchConv(kEncodeHalf, dt, dst[:len(src)], src, len(src))
}

// ParallelDecode widens src into dst[:len(src)] using dt.
func ParallelDecode(dt DType, dst []float32, src []uint16) {
	dispatchConv(kDecodeHalf, dt, src, dst[:len(src)], len(src))
}
