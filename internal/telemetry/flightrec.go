package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FlightRecorderConfig configures OpenFlightRecorder. The zero value of
// every field has a sensible default; only Dir must be set for black-box
// bundles to be written (without it the recorder still samples, detects
// and marks, which is what TestTimeseriesZeroAlloc holds to budget).
type FlightRecorderConfig struct {
	// Dir is where blackbox-<step>/ bundles are dumped. Empty disables
	// dumping (findings are still recorded in memory).
	Dir string
	// DebounceSteps is the per-kind refractory window
	// (DefaultDebounceSteps); findings of a kind that already fired
	// within the window are suppressed.
	DebounceSteps int
	// MaxBundles caps how many bundles one recorder writes (default 8);
	// further triggers record findings but skip the dump.
	MaxBundles int
	// Tracer, when set, supplies the span window and the doctor's input
	// for bundles.
	Tracer *Tracer
	// Registry, when set, supplies ingest-starvation and checkpoint
	// meters per sample and the metrics snapshot for bundles.
	Registry *Registry
	// Ranks gates the straggler detector (needs > 1).
	Ranks int
	// StragglerIndex is the straggler detector's threshold (default
	// StragglerIndexThreshold).
	StragglerIndex float64
	// Logf, when set, receives one line per recorded finding and dump.
	Logf func(format string, args ...any)
}

// FlightRecorder is the continuous-monitoring front end: trainers feed
// it one StepSample per step (ObserveStep, zero-alloc in steady state),
// it maintains the time-series ring, runs the online anomaly detectors,
// and on any finding — or an externally reported RankError / manual
// trigger — atomically dumps a blackbox-<step>/ bundle with the trace
// window, metrics snapshot, time-series tail and a doctor report.
//
// ObserveStep/RecordFault/Mark are meant to be called from the training
// goroutine between steps (bundle dumps snapshot the tracer, which
// requires quiescent recording shards); the accessor methods and the
// /timeseries endpoint are safe to use concurrently.
type FlightRecorder struct {
	cfg FlightRecorderConfig
	ts  *Timeseries
	det anomalyState

	starved   *Counter // ingest/starved_ns
	ckptBytes *Counter // ckpt/bytes_written
	prevStarved,
	prevCkpt int64

	mu       sync.Mutex
	findings []AnomalyFinding
	bundles  []string
	scratch  []AnomalyFinding // reused per-step findings buffer
}

// OpenFlightRecorder validates cfg, creates cfg.Dir when set, and
// returns a recorder ready to observe steps.
func OpenFlightRecorder(cfg FlightRecorderConfig) (*FlightRecorder, error) {
	if cfg.DebounceSteps <= 0 {
		cfg.DebounceSteps = DefaultDebounceSteps
	}
	if cfg.MaxBundles <= 0 {
		cfg.MaxBundles = 8
	}
	if cfg.StragglerIndex <= 0 {
		cfg.StragglerIndex = StragglerIndexThreshold
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("telemetry: flight recorder dir: %w", err)
		}
	}
	fr := &FlightRecorder{
		cfg: cfg,
		ts:  NewTimeseries(DefaultTimeseriesCap),
		det: anomalyState{cfg: anomalyConfig{
			stragIdx: cfg.StragglerIndex, ranks: cfg.Ranks, debounce: int64(cfg.DebounceSteps),
		}},
		scratch: make([]AnomalyFinding, 0, 8),
	}
	if cfg.Registry != nil {
		fr.starved = cfg.Registry.Counter("ingest/starved_ns")
		fr.ckptBytes = cfg.Registry.Counter("ckpt/bytes_written")
	}
	return fr, nil
}

// Timeseries returns the recorder's sample ring (also what the
// /timeseries endpoint serves). Nil-safe.
func (fr *FlightRecorder) Timeseries() *Timeseries {
	if fr == nil {
		return nil
	}
	return fr.ts
}

// ObserveStep records one step sample: it derives the meter-backed
// fields (starvation, checkpoint bytes) as deltas since the previous
// step, appends the sample to the ring, runs the anomaly
// detectors, and — on a non-debounced finding — dumps a black-box
// bundle. Nil-safe; allocation-free unless a finding fires.
func (fr *FlightRecorder) ObserveStep(s StepSample) {
	if fr == nil {
		return
	}
	if s.ClockNS == 0 {
		s.ClockNS = Now()
	}
	if fr.starved != nil {
		v := fr.starved.Load()
		s.StarvedNS = v - fr.prevStarved
		fr.prevStarved = v
	}
	if fr.ckptBytes != nil {
		v := fr.ckptBytes.Load()
		s.CkptBytes = v - fr.prevCkpt
		fr.prevCkpt = v
	}
	fr.ts.Append(s)

	fr.mu.Lock()
	found := fr.det.observe(s, fr.scratch[:0])
	fr.mu.Unlock()
	for _, f := range found {
		fr.recordFinding(f)
	}
}

// RecordFault reports a failed step (typically a collective RankError
// surfaced by the hybrid trainer or RunElastic — the caller localizes
// step via errors.As on collective.RankError, which this package cannot
// import).
// It records a maximum-severity AnomalyRankFault finding at that step
// and triggers a bundle dump.
func (fr *FlightRecorder) RecordFault(step int64, err error) {
	if fr == nil || err == nil {
		return
	}
	fr.mu.Lock()
	fire := fr.det.fire(AnomalyRankFault, step)
	fr.mu.Unlock()
	if fire {
		fr.recordFinding(AnomalyFinding{
			Kind: AnomalyRankFault, Step: step, Severity: 10,
			Detail: err.Error(),
		})
	}
}

// Mark annotates the time-series with a non-finding event (world
// rebuild, checkpoint restore, config change). Marks do not trigger
// bundle dumps.
func (fr *FlightRecorder) Mark(step int64, kind, detail string) {
	if fr == nil {
		return
	}
	fr.ts.Mark(step, kind, detail)
	if fr.cfg.Logf != nil {
		fr.cfg.Logf("flightrec: mark %s @ step %d: %s", kind, step, detail)
	}
}

// recordFinding stores a finding the debounce let through, mirrors it as
// a time-series mark, and dumps a bundle.
func (fr *FlightRecorder) recordFinding(f AnomalyFinding) {
	fr.mu.Lock()
	fr.findings = append(fr.findings, f)
	fr.mu.Unlock()

	fr.ts.Mark(f.Step, f.Kind.String(), f.Detail)
	if fr.cfg.Logf != nil {
		fr.cfg.Logf("flightrec: %s", f.String())
	}
	if fr.cfg.Dir != "" {
		if path, err := fr.dump(f); err != nil {
			if fr.cfg.Logf != nil {
				fr.cfg.Logf("flightrec: bundle dump failed: %v", err)
			}
		} else if path != "" && fr.cfg.Logf != nil {
			fr.cfg.Logf("flightrec: black box dumped to %s", path)
		}
	}
}

// Findings returns a copy of all recorded (non-debounced) findings in
// order.
func (fr *FlightRecorder) Findings() []AnomalyFinding {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]AnomalyFinding(nil), fr.findings...)
}

// FindingsOf returns the recorded findings of one kind.
func (fr *FlightRecorder) FindingsOf(kind AnomalyKind) []AnomalyFinding {
	var out []AnomalyFinding
	for _, f := range fr.Findings() {
		if f.Kind == kind {
			out = append(out, f)
		}
	}
	return out
}

// Bundles returns the paths of the black-box bundles written so far.
func (fr *FlightRecorder) Bundles() []string {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return append([]string(nil), fr.bundles...)
}

// BundleManifest is the bundle.json schema: what triggered the dump and
// which files the bundle holds.
type BundleManifest struct {
	Schema  string         `json:"schema"` // "recsim-blackbox/1"
	Step    int64          `json:"step"`
	Trigger AnomalyFinding `json:"trigger"`
	Files   []string       `json:"files"`
}

// bundleWindowSteps is K for a bundle's last-K-steps Chrome trace window
// and time-series tail.
const bundleWindowSteps = 64

// bundleSchemaVersion identifies the bundle layout; bump on breaking
// changes so readers can dispatch.
const bundleSchemaVersion = "recsim-blackbox/1"

// dump writes blackbox-<step>/ atomically: everything lands in a
// temporary directory first, then one os.Rename publishes it — a
// half-written bundle can never be observed under its final name
// (the same crash-atomicity idiom the checkpoint store uses).
func (fr *FlightRecorder) dump(trigger AnomalyFinding) (string, error) {
	final := filepath.Join(fr.cfg.Dir, fmt.Sprintf("blackbox-%d", trigger.Step))

	fr.mu.Lock()
	if len(fr.bundles) >= fr.cfg.MaxBundles {
		fr.mu.Unlock()
		return "", nil
	}
	for _, b := range fr.bundles {
		if b == final {
			fr.mu.Unlock()
			return final, nil
		}
	}
	fr.mu.Unlock()

	tmp := final + fmt.Sprintf(".tmp-%d", Now())
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp) // no-op after a successful rename

	files := []string{"timeseries.json", "metrics.json", "trace.json", "doctor.txt"}

	// Time-series tail (the full held window; the ring already bounds it).
	if err := writeBundleFile(tmp, "timeseries.json", fr.ts.WriteJSON); err != nil {
		return "", err
	}

	// Registry snapshot.
	if err := writeBundleFile(tmp, "metrics.json", func(w io.Writer) error {
		if fr.cfg.Registry == nil {
			_, err := io.WriteString(w, "{}\n")
			return err
		}
		return fr.cfg.Registry.WriteJSON(w)
	}); err != nil {
		return "", err
	}

	// Chrome trace of the last-K-steps window, plus the doctor's read
	// of the full snapshot.
	snap := fr.cfg.Tracer.Snapshot()
	var cutoff int64
	if tail := fr.ts.Tail(bundleWindowSteps); len(tail) > 0 {
		cutoff = tail[0].ClockNS - tail[0].StepNS
	}
	win := snap
	win.Spans = nil
	for _, sp := range snap.Spans {
		if sp.End >= cutoff {
			win.Spans = append(win.Spans, sp)
		}
	}
	if err := writeBundleFile(tmp, "trace.json", func(w io.Writer) error {
		return WriteChromeTrace(w, win)
	}); err != nil {
		return "", err
	}

	var met Snapshot
	if fr.cfg.Registry != nil {
		met = fr.cfg.Registry.Snapshot()
	}
	report := Diagnose(DoctorInput{Snap: snap, Metrics: met})
	if err := writeBundleFile(tmp, "doctor.txt", func(w io.Writer) error {
		if _, err := io.WriteString(w, report.Render()); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "\ntrigger: %s\n", trigger)
		return err
	}); err != nil {
		return "", err
	}

	man := BundleManifest{
		Schema: bundleSchemaVersion, Step: trigger.Step,
		Trigger: trigger, Files: files,
	}
	if err := writeBundleFile(tmp, "bundle.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	}); err != nil {
		return "", err
	}

	if err := os.Rename(tmp, final); err != nil {
		return "", err
	}
	fr.mu.Lock()
	fr.bundles = append(fr.bundles, final)
	fr.mu.Unlock()
	return final, nil
}

// writeBundleFile creates name under dir, runs fill, and closes,
// reporting the first error.
func writeBundleFile(dir, name string, fill func(io.Writer) error) error {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
