package telemetry

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Counter is a monotonically increasing atomic instrument. Values are
// int64; durations are recorded as nanoseconds, bytes as bytes. A nil
// *Counter no-ops, so optional instrumentation needs no branches at the
// call site.
type Counter struct{ v atomic.Int64 }

// Add increments the counter.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value (0 for nil).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument. A nil *Gauge no-ops.
type Gauge struct{ v atomic.Int64 }

// Set stores the value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// SetOnce stores v only if the gauge is still zero (first-write-wins;
// used for "first event" timestamps) and reports whether it stored.
func (g *Gauge) SetOnce(v int64) bool {
	if g == nil {
		return false
	}
	return g.v.CompareAndSwap(0, v)
}

// Load returns the current value (0 for nil).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is the unified meter store: named counters, gauges, and
// snapshot-time functions behind one namespace. Instrument lookup
// (Counter, Gauge) takes a lock and may allocate — do it once at
// construction and keep the returned pointer; the instruments themselves
// are single atomic words with no per-operation allocation.
//
// Names are slash-scoped by convention: "collective/allreduce/bytes",
// "ingest/bytes_read", "hybrid/step_ns".
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	funcs    map[string]func() int64
	hists    map[string]func() Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		funcs:    make(map[string]func() int64),
		hists:    make(map[string]func() Histogram),
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil
// registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// RegisterFunc installs a snapshot-time metric: fn is evaluated on every
// Snapshot. Use it to surface externally owned counters (embedding-table
// lookup counts, ring depths) without copying them on the hot path.
func (r *Registry) RegisterFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// RegisterHist installs a snapshot-time histogram source: fn (typically
// a Tracer.PhaseHist closure) is evaluated on every Snapshot and, when
// the histogram is non-empty, expands into quantile metrics under the
// given name — <name>/count, /mean_ns, /p50_ns, /p95_ns, /p99_ns,
// /p999_ns, /max_ns. Empty histograms are omitted so idle phases do not
// flood the snapshot.
func (r *Registry) RegisterHist(name string, fn func() Histogram) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = fn
}

// RegisterPhaseHists exposes every phase latency distribution of a
// tracer in the registry under "phase/<phase name>", so /metrics and
// Snapshot().Render() carry p50/p95/p99/p999 per phase.
func RegisterPhaseHists(r *Registry, t *Tracer) {
	if r == nil || t == nil {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		p := p
		r.RegisterHist("phase/"+p.String(), func() Histogram { return t.PhaseHist(p) })
	}
}

// Metric is one named value in a snapshot.
type Metric struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of every registry instrument, sorted
// by name, stamped with the time it was resolved.
type Snapshot struct {
	// TakenAt is the wall-clock resolution time (RFC3339Nano, UTC).
	TakenAt string `json:"taken_at,omitempty"`
	// ClockNS is the telemetry clock (Now) at resolution time, the
	// timebase every span and duration metric shares.
	ClockNS int64    `json:"clock_ns,omitempty"`
	Metrics []Metric `json:"metrics"`
}

// Snapshot reads every instrument (and snapshot function) atomically per
// instrument. It allocates; take snapshots at measurement boundaries,
// not inside hot loops.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	ms := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.funcs))
	for n, c := range r.counters {
		ms = append(ms, Metric{n, c.Load()})
	}
	for n, g := range r.gauges {
		ms = append(ms, Metric{n, g.Load()})
	}
	fns := make([]Metric, 0, len(r.funcs))
	for n := range r.funcs {
		fns = append(fns, Metric{Name: n})
	}
	funcs := r.funcs
	histNames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		histNames = append(histNames, n)
	}
	hists := r.hists
	r.mu.Unlock()
	// Evaluate functions and histograms outside the lock: they may read
	// other systems.
	for i := range fns {
		fns[i].Value = funcs[fns[i].Name]()
	}
	ms = append(ms, fns...)
	for _, n := range histNames {
		h := hists[n]()
		if h.Count() == 0 {
			continue
		}
		q := h.Summary()
		ms = append(ms,
			Metric{n + "/count", int64(q.Count)},
			Metric{n + "/mean_ns", int64(q.Mean)},
			Metric{n + "/p50_ns", q.P50},
			Metric{n + "/p95_ns", q.P95},
			Metric{n + "/p99_ns", q.P99},
			Metric{n + "/p999_ns", q.P999},
			Metric{n + "/max_ns", q.Max},
		)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return Snapshot{
		TakenAt: time.Now().UTC().Format(time.RFC3339Nano),
		ClockNS: Now(),
		Metrics: ms,
	}
}

// Reset zeroes every counter and gauge (snapshot functions are left
// alone — they mirror external state): one call opens a fresh
// measurement window across every absorbed meter.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
}

// Value returns the named metric and whether it exists.
func (s Snapshot) Value(name string) (int64, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Get returns the named metric or 0.
func (s Snapshot) Get(name string) int64 {
	v, _ := s.Value(name)
	return v
}

// Render returns the snapshot as an aligned two-column table, headed by
// the resolution timestamp.
func (s Snapshot) Render() string {
	rows := [][]string{{"metric", "value"}}
	for _, m := range s.Metrics {
		rows = append(rows, []string{m.Name, fmt.Sprintf("%d", m.Value)})
	}
	head := ""
	if s.TakenAt != "" {
		head = fmt.Sprintf("snapshot at %s (clock %.3f s)\n", s.TakenAt, float64(s.ClockNS)/1e9)
	}
	return head + metrics.Table(rows)
}

// WriteJSON serializes a snapshot of the registry.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// expvarMu guards duplicate expvar names across multiple Serve calls
// in one process (expvar.Publish panics on re-publication).
var expvarMu sync.Mutex

// PublishExpvar exposes the registry under the given expvar name, so
// /debug/vars carries a live snapshot. Re-publishing an existing name is
// a no-op (expvar forbids replacement).
func (r *Registry) PublishExpvar(name string) {
	if r == nil {
		return
	}
	expvarMu.Lock()
	defer expvarMu.Unlock()
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return r.Snapshot().Metrics }))
}

// Handler returns an http.Handler serving the registry snapshot as JSON.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = r.WriteJSON(w)
	})
}

// serveOpts collects the optional Serve wiring.
type serveOpts struct {
	ts *Timeseries
}

// ServeOption configures optional endpoints on Serve.
type ServeOption func(*serveOpts)

// WithTimeseries backs the /timeseries endpoint with the given ring
// (typically FlightRecorder.Timeseries()). Without this option the
// endpoint still exists and serves an empty, well-formed document.
func WithTimeseries(ts *Timeseries) ServeOption {
	return func(o *serveOpts) { o.ts = ts }
}

// Serve starts an HTTP endpoint with the process profile and the
// registry: /debug/vars (expvar, including this registry under
// "telemetry"), /debug/pprof/* (the standard profiles), /metrics
// (the registry snapshot as JSON), /timeseries (the per-step flight-
// recorder ring as JSON; see WithTimeseries) and /healthz (liveness).
// It returns the running server; the caller shuts it down. The
// listener is bound synchronously, so a returned nil error means the
// endpoint is live.
func Serve(addr string, r *Registry, opts ...ServeOption) (*http.Server, error) {
	var o serveOpts
	for _, opt := range opts {
		opt(&o)
	}
	r.PublishExpvar("telemetry")
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", r.Handler())
	mux.Handle("/timeseries", o.ts.Handler())
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte("ok\n"))
	})
	srv := &http.Server{Addr: addr, Handler: mux}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: %w", err)
	}
	srv.Addr = ln.Addr().String() // report the resolved port for ":0"
	go func() { _ = srv.Serve(ln) }()
	return srv, nil
}
