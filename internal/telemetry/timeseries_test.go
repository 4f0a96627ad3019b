package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestTimeseriesRing(t *testing.T) {
	ts := NewTimeseries(4)
	if ts.Cap() != 4 || ts.Len() != 0 {
		t.Fatalf("fresh ring: cap %d len %d", ts.Cap(), ts.Len())
	}
	if _, ok := ts.Last(); ok {
		t.Fatal("Last on empty ring")
	}
	for i := 0; i < 6; i++ {
		ts.Append(StepSample{Step: int64(i), Loss: float64(i)})
	}
	if ts.Len() != 4 || ts.Total() != 6 {
		t.Fatalf("after wrap: len %d total %d", ts.Len(), ts.Total())
	}
	last, ok := ts.Last()
	if !ok || last.Step != 5 {
		t.Fatalf("Last = %+v, %v", last, ok)
	}
	tail := ts.Tail(0)
	if len(tail) != 4 {
		t.Fatalf("Tail(0) len %d", len(tail))
	}
	for i, s := range tail {
		if want := int64(i + 2); s.Step != want { // oldest retained is step 2
			t.Fatalf("tail[%d].Step = %d, want %d", i, s.Step, want)
		}
	}
	if got := ts.Tail(2); len(got) != 2 || got[0].Step != 4 || got[1].Step != 5 {
		t.Fatalf("Tail(2) = %+v", got)
	}
}

func TestTimeseriesMarks(t *testing.T) {
	ts := NewTimeseries(8)
	for i := 0; i < timeseriesMarkCap+3; i++ {
		ts.Mark(int64(i), "k", "")
	}
	marks := ts.Marks()
	if len(marks) != timeseriesMarkCap {
		t.Fatalf("mark ring len %d", len(marks))
	}
	if marks[0].Step != 3 || marks[len(marks)-1].Step != int64(timeseriesMarkCap+2) {
		t.Fatalf("mark ring order: first %d last %d", marks[0].Step, marks[len(marks)-1].Step)
	}
}

func TestTimeseriesNilSafe(t *testing.T) {
	var ts *Timeseries
	ts.Append(StepSample{})
	ts.Mark(0, "k", "d")
	if ts.Len() != 0 || ts.Cap() != 0 || ts.Total() != 0 {
		t.Fatal("nil ring not empty")
	}
	if ts.Tail(3) != nil || ts.Marks() != nil {
		t.Fatal("nil ring returned data")
	}
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil WriteJSON: %v (%s)", err, buf.Bytes())
	}
	if string(doc["samples"]) != "[]" {
		t.Fatalf("nil samples = %s", doc["samples"])
	}
}

func TestTimeseriesWriteJSONRoundTrip(t *testing.T) {
	ts := NewTimeseries(8)
	ts.Append(StepSample{Step: 1, Loss: 0.7, Examples: 64, StepNS: 2e6, WaitNS: 1e5})
	ts.Mark(1, "fault", "rank 1 kill")
	var buf bytes.Buffer
	if err := ts.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Total   uint64       `json:"total"`
		Cap     int          `json:"cap"`
		Samples []StepSample `json:"samples"`
		Marks   []SeriesMark `json:"marks"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 1 || doc.Cap != 8 || len(doc.Samples) != 1 || len(doc.Marks) != 1 {
		t.Fatalf("round trip: %+v", doc)
	}
	if doc.Samples[0].Loss != 0.7 || doc.Marks[0].Detail != "rank 1 kill" {
		t.Fatalf("round trip content: %+v", doc)
	}
}

func TestTimeseriesAppendZeroAlloc(t *testing.T) {
	ts := NewTimeseries(64)
	s := StepSample{Step: 1, Loss: 0.5, Examples: 128, StepNS: 1e6}
	if n := testing.AllocsPerRun(100, func() { ts.Append(s) }); n != 0 {
		t.Fatalf("Append allocates %v/op", n)
	}
}

func TestExamplesPerSec(t *testing.T) {
	s := StepSample{Examples: 128, StepNS: int64(1e9)}
	if got := s.ExamplesPerSec(); got != 128 {
		t.Fatalf("ExamplesPerSec = %v", got)
	}
	if (StepSample{Examples: 128}).ExamplesPerSec() != 0 {
		t.Fatal("zero StepNS must yield 0 throughput")
	}
}

func TestDashboard(t *testing.T) {
	var nilTS *Timeseries
	if out := nilTS.Dashboard(40); !strings.Contains(out, "no samples") {
		t.Fatalf("nil dashboard: %q", out)
	}
	ts := NewTimeseries(32)
	for i := 0; i < 20; i++ {
		ts.Append(StepSample{
			Step: int64(i), Loss: 0.7 - 0.01*float64(i),
			Examples: 128, StepNS: 1e6,
			WaitNS: 1e5, StarvedNS: 2e5,
		})
	}
	ts.Mark(10, "restore", "rollback")
	out := ts.Dashboard(16)
	for _, want := range []string{"loss", "ex/s", "step ms", "wait %", "starve %", "mark @10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, out)
		}
	}
	// NaN losses must not break the sparkline scaling.
	ts.Append(StepSample{Step: 20, Loss: math.NaN(), Examples: 128, StepNS: 1e6})
	if out := ts.Dashboard(16); !strings.Contains(out, "loss") {
		t.Fatalf("dashboard with NaN:\n%s", out)
	}
}

func TestAnomalyKindJSON(t *testing.T) {
	for k := AnomalyKind(0); k < numAnomalyKinds; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		var back AnomalyKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("kind %v round-tripped to %v", k, back)
		}
	}
	var k AnomalyKind
	if err := json.Unmarshal([]byte(`"nope"`), &k); err == nil {
		t.Fatal("unknown kind must not parse")
	}
}

// feedStable drives n baseline samples through the detector state.
func feedStable(a *anomalyState, n int) {
	for i := 0; i < n; i++ {
		a.observe(StepSample{
			Step: int64(i), Loss: 0.69 + 0.001*float64(i%3),
			Examples: 128, StepNS: 1e6,
		}, nil)
	}
}

func detCfg() anomalyConfig {
	return anomalyConfig{stragIdx: StragglerIndexThreshold, ranks: 2}
}

func TestDetectLossSpike(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	feedStable(a, 20)
	got := a.observe(StepSample{Step: 20, Loss: 9.0, Examples: 128, StepNS: 1e6}, nil)
	if len(got) == 0 || got[0].Kind != AnomalyLossSpike || got[0].Step != 20 {
		t.Fatalf("spike findings: %+v", got)
	}
	// A loss *drop* is good news, not a spike.
	if got := a.observe(StepSample{Step: 21, Loss: 0.01, Examples: 128, StepNS: 1e6}, nil); len(got) != 0 {
		t.Fatalf("drop fired: %+v", got)
	}
}

func TestDetectLossSpikeWarmup(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	// Within warmup even a wild jump stays quiet.
	a.observe(StepSample{Step: 0, Loss: 0.7, Examples: 128, StepNS: 1e6}, nil)
	if got := a.observe(StepSample{Step: 1, Loss: 50, Examples: 128, StepNS: 1e6}, nil); len(got) != 0 {
		t.Fatalf("warmup fired: %+v", got)
	}
}

func TestDetectNaN(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	got := a.observe(StepSample{Step: 0, Loss: math.NaN()}, nil)
	if len(got) != 1 || got[0].Kind != AnomalyLossNaN || got[0].Severity != 10 {
		t.Fatalf("NaN findings: %+v", got)
	}
	if got := a.observe(StepSample{Step: 1, Loss: math.Inf(1)}, nil); len(got) != 1 || got[0].Kind != AnomalyLossNaN {
		t.Fatalf("Inf findings: %+v", got)
	}
}

func TestDetectThroughputDip(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	feedStable(a, 20) // 128 ex / 1ms
	got := a.observe(StepSample{Step: 20, Loss: 0.69, Examples: 128, StepNS: 4e6}, nil)
	var hit bool
	for _, f := range got {
		if f.Kind == AnomalyThroughputDip && f.Step == 20 {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("dip findings: %+v", got)
	}
}

func TestDetectStarvation(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	got := a.observe(StepSample{Step: 0, Loss: 0.7, Examples: 128, StepNS: 3e6, StarvedNS: 2e6}, nil)
	kinds := map[AnomalyKind]int64{}
	for _, f := range got {
		kinds[f.Kind] = f.Step
	}
	if _, ok := kinds[AnomalyIngestStarvation]; !ok {
		t.Fatalf("no starvation finding: %+v", got)
	}
}

func TestDetectStraggler(t *testing.T) {
	a := &anomalyState{cfg: detCfg()}
	got := a.observe(StepSample{Step: 3, Loss: 0.7, Examples: 128, StepNS: 1e6,
		StragglerIndex: 1.6, SlowestRank: 1}, nil)
	if len(got) != 1 || got[0].Kind != AnomalyStraggler || got[0].Step != 3 {
		t.Fatalf("straggler findings: %+v", got)
	}
	// Single-rank configs never report stragglers.
	a.cfg.ranks = 1
	if got := a.observe(StepSample{Step: 4, Loss: 0.7, StragglerIndex: 9}, nil); len(got) != 0 {
		t.Fatalf("single-rank straggler fired: %+v", got)
	}
}
