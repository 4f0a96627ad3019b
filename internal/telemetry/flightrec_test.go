package telemetry

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// feedRecorder drives n stable steps into fr starting at step from.
func feedRecorder(fr *FlightRecorder, from, n int) {
	for i := 0; i < n; i++ {
		fr.ObserveStep(StepSample{
			Step: int64(from + i), Loss: 0.69 + 0.001*float64(i%3),
			Examples: 128, StepNS: 1e6,
		})
	}
}

func TestFlightRecorderDumpsBundle(t *testing.T) {
	dir := t.TempDir()
	tr := NewTracer(1, 128)
	reg := NewRegistry()
	fr, err := OpenFlightRecorder(FlightRecorderConfig{
		Dir: dir, Tracer: tr, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Give the bundle a trace window to carve from.
	var rec StepRecord
	for i := 0; i < 10; i++ {
		rec.Start()
		rec.Mark(PhaseDenseFwd)
		rec.Emit(tr, 0)
	}
	feedRecorder(fr, 0, 20)
	fr.ObserveStep(StepSample{Step: 20, Loss: 42, Examples: 128, StepNS: 1e6})

	findings := fr.Findings()
	if len(findings) != 1 || findings[0].Kind != AnomalyLossSpike || findings[0].Step != 20 {
		t.Fatalf("findings: %+v", findings)
	}
	bundles := fr.Bundles()
	if len(bundles) != 1 {
		t.Fatalf("bundles: %v", bundles)
	}
	want := filepath.Join(dir, "blackbox-20")
	if bundles[0] != want {
		t.Fatalf("bundle path %q, want %q", bundles[0], want)
	}
	// Atomic publication: no temp directories survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("leftover temp dir %s", e.Name())
		}
	}
	// Manifest schema.
	raw, err := os.ReadFile(filepath.Join(want, "bundle.json"))
	if err != nil {
		t.Fatal(err)
	}
	var man BundleManifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	if man.Schema != "recsim-blackbox/1" || man.Step != 20 || man.Trigger.Kind != AnomalyLossSpike {
		t.Fatalf("manifest: %+v", man)
	}
	if len(man.Files) != 4 {
		t.Fatalf("manifest files: %v", man.Files)
	}
	if man.Trigger.Detail == "" {
		t.Error("manifest trigger has no detail")
	}
	// Each member is listed, non-empty, and parses if it is JSON.
	listed := map[string]bool{}
	for _, f := range man.Files {
		listed[f] = true
	}
	for _, name := range []string{"timeseries.json", "metrics.json", "trace.json", "doctor.txt"} {
		if !listed[name] {
			t.Errorf("manifest does not list %s (files: %v)", name, man.Files)
		}
		raw, err := os.ReadFile(filepath.Join(want, name))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) == 0 {
			t.Errorf("%s is empty", name)
		}
		if filepath.Ext(name) == ".json" && !json.Valid(raw) {
			t.Errorf("%s is not valid JSON", name)
		}
	}
	// The time-series tail parses and ends at the triggering step.
	raw, err = os.ReadFile(filepath.Join(want, "timeseries.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Samples []StepSample `json:"samples"`
		Marks   []SeriesMark `json:"marks"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Samples) == 0 || doc.Samples[len(doc.Samples)-1].Step != 20 {
		t.Fatalf("timeseries tail: %d samples", len(doc.Samples))
	}
	// The finding is mirrored as a mark.
	if len(doc.Marks) != 1 || doc.Marks[0].Kind != "loss_spike" {
		t.Fatalf("marks: %+v", doc.Marks)
	}
}

func TestFlightRecorderDebounce(t *testing.T) {
	fr, err := OpenFlightRecorder(FlightRecorderConfig{DebounceSteps: 10})
	if err != nil {
		t.Fatal(err)
	}
	feedRecorder(fr, 0, 20)
	fr.ObserveStep(StepSample{Step: 20, Loss: 9, Examples: 128, StepNS: 1e6})
	fr.ObserveStep(StepSample{Step: 21, Loss: 9.5, Examples: 128, StepNS: 1e6})
	if got := fr.FindingsOf(AnomalyLossSpike); len(got) != 1 {
		t.Fatalf("debounce failed: %+v", got)
	}
	// Outside the refractory window the kind may fire again.
	feedRecorder(fr, 22, 15)
	fr.ObserveStep(StepSample{Step: 37, Loss: 30, Examples: 128, StepNS: 1e6})
	if got := fr.FindingsOf(AnomalyLossSpike); len(got) != 2 {
		t.Fatalf("post-window refire: %+v", got)
	}
}

func TestFlightRecorderRecordFault(t *testing.T) {
	dir := t.TempDir()
	fr, err := OpenFlightRecorder(FlightRecorderConfig{Dir: dir, Tracer: NewTracer(1, 16)})
	if err != nil {
		t.Fatal(err)
	}
	fr.RecordFault(15, errors.New("rank 1 kill fault at step 15"))
	got := fr.FindingsOf(AnomalyRankFault)
	if len(got) != 1 || got[0].Step != 15 || got[0].Severity != 10 {
		t.Fatalf("fault findings: %+v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "blackbox-15")); err != nil {
		t.Fatalf("fault bundle: %v", err)
	}
	fr.RecordFault(0, nil) // nil error is a no-op
	if len(fr.FindingsOf(AnomalyRankFault)) != 1 {
		t.Fatal("nil error recorded a fault")
	}
}

func TestFlightRecorderMaxBundles(t *testing.T) {
	dir := t.TempDir()
	fr, err := OpenFlightRecorder(FlightRecorderConfig{
		Dir: dir, MaxBundles: 2, DebounceSteps: 1, Tracer: NewTracer(1, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		fr.RecordFault(int64(10+i), errors.New("boom"))
	}
	if got := fr.Bundles(); len(got) != 2 {
		t.Fatalf("MaxBundles: %v", got)
	}
	if got := fr.FindingsOf(AnomalyRankFault); len(got) != 5 {
		t.Fatalf("findings still recorded past the cap: %d", len(got))
	}
}

func TestFlightRecorderDerivesMeterDeltas(t *testing.T) {
	reg := NewRegistry()
	starved := reg.Counter("ingest/starved_ns")
	ck := reg.Counter("ckpt/bytes_written")
	fr, err := OpenFlightRecorder(FlightRecorderConfig{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	starved.Add(100)
	ck.Add(1000)
	fr.ObserveStep(StepSample{Step: 0, Loss: 0.7, Examples: 128, StepNS: 1e6})
	starved.Add(250)
	fr.ObserveStep(StepSample{Step: 1, Loss: 0.7, Examples: 128, StepNS: 1e6})
	tail := fr.Timeseries().Tail(0)
	if len(tail) != 2 {
		t.Fatalf("tail: %d", len(tail))
	}
	if tail[0].StarvedNS != 100 || tail[0].CkptBytes != 1000 {
		t.Fatalf("first sample deltas: %+v", tail[0])
	}
	if tail[1].StarvedNS != 250 || tail[1].CkptBytes != 0 {
		t.Fatalf("second sample deltas: %+v", tail[1])
	}
}

// TestFlightRecorderPhaseDeltas: a sample's per-phase time is the one
// its trainer read off the step record; the recorder keeps it as given
// and does not re-derive it from the tracer, so spans recorded between
// samples (here, by another writer) cannot skew it.
func TestFlightRecorderPhaseDeltas(t *testing.T) {
	tr := NewTracer(1, 64)
	fr, err := OpenFlightRecorder(FlightRecorderConfig{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	var rec StepRecord
	rec.Start()
	rec.Mark(PhaseDenseFwd)
	rec.Mark(PhaseLoss)
	rec.Emit(tr, 0)
	tr.Emit(0, PhaseIngestDecode, 0, 500)
	fr.ObserveStep(StepSample{Step: 0, Loss: 0.7, StepNS: rec.Wall(), PhaseNS: rec.Phases()})
	got := fr.Timeseries().Tail(0)[0]
	if got.PhaseNS != rec.Phases() || got.PhaseNS[PhaseIngestDecode] != 0 {
		t.Fatalf("sample phases %v, record %v", got.PhaseNS, rec.Phases())
	}
	if got.PhaseNS[PhaseDenseFwd]+got.PhaseNS[PhaseLoss] != got.StepNS {
		t.Fatalf("phases %v do not sum to the step's %d ns", got.PhaseNS, got.StepNS)
	}
}

func TestFlightRecorderObserveZeroAlloc(t *testing.T) {
	tr := NewTracer(1, 64)
	reg := NewRegistry()
	fr, err := OpenFlightRecorder(FlightRecorderConfig{Tracer: tr, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	feedRecorder(fr, 0, 20)
	s := StepSample{Step: 20, Loss: 0.69, Examples: 128, StepNS: 1e6}
	if n := testing.AllocsPerRun(100, func() {
		s.Step++
		fr.ObserveStep(s)
	}); n != 0 {
		t.Fatalf("ObserveStep allocates %v/op in steady state", n)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.ObserveStep(StepSample{})
	fr.RecordFault(0, errors.New("x"))
	fr.Mark(0, "k", "d")
	if fr.Findings() != nil || fr.Bundles() != nil || fr.Timeseries() != nil {
		t.Fatal("nil recorder returned data")
	}
}
