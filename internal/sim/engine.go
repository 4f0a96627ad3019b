// Package sim is a small discrete-event simulation engine: an event
// queue, FIFO resources with configurable capacity, and busy-time
// accounting. The pipeline package builds the paper's distributed
// training pipeline (Fig 4) on top of it to study utilization and
// variability (Fig 5), which analytic steady-state formulas cannot show.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// event is one scheduled callback.
type event struct {
	time float64
	seq  int64 // tie-breaker for deterministic ordering
	fn   func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Engine runs events in time order. Events scheduled at equal times run
// in scheduling order, so simulations are fully deterministic.
type Engine struct {
	now   float64
	seq   int64
	queue eventHeap
}

// NewEngine returns an engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay seconds of simulated time.
func (e *Engine) Schedule(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.seq++
	heap.Push(&e.queue, event{time: e.now + delay, seq: e.seq, fn: fn})
}

// Step executes the next event; it reports false when the queue is empty.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(event)
	e.now = ev.time
	ev.fn()
	return true
}

// Run processes events until the queue empties or simulated time would
// exceed until; remaining events stay queued. Passing +Inf drains the
// queue and leaves the clock at the last event.
func (e *Engine) Run(until float64) {
	for e.queue.Len() > 0 {
		if e.queue[0].time > until {
			e.now = until
			return
		}
		e.Step()
	}
	if !math.IsInf(until, 1) && e.now < until {
		e.now = until
	}
}

// Resource is a FIFO service center with a fixed number of parallel
// servers. Requests are granted in arrival order; busy time accumulates
// for utilization accounting.
type Resource struct {
	Name string

	eng      *Engine
	capacity int
	// freeAt[i] is when server i next becomes idle.
	freeAt   []float64
	busyTime float64
}

// NewResource attaches a resource with the given server count.
func NewResource(eng *Engine, name string, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{Name: name, eng: eng, capacity: capacity, freeAt: make([]float64, capacity)}
}

// Acquire queues a request of the given service duration and calls done
// when it completes. The request occupies the earliest-free server.
func (r *Resource) Acquire(duration float64, done func()) {
	if duration < 0 {
		panic(fmt.Sprintf("sim: negative service time %v", duration))
	}
	best := 0
	for i := 1; i < r.capacity; i++ {
		if r.freeAt[i] < r.freeAt[best] {
			best = i
		}
	}
	start := r.eng.now
	if r.freeAt[best] > start {
		start = r.freeAt[best]
	}
	finish := start + duration
	r.freeAt[best] = finish
	r.busyTime += duration
	r.eng.Schedule(finish-r.eng.now, done)
}

// Utilization returns busy time as a fraction of capacity over [0, now].
func (r *Resource) Utilization() float64 {
	if r.eng.now <= 0 {
		return 0
	}
	u := r.busyTime / (r.eng.now * float64(r.capacity))
	if u > 1 {
		// Busy time booked ahead of now (requests finishing after
		// the horizon); clamp for reporting.
		u = 1
	}
	return u
}
