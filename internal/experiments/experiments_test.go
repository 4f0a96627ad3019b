package experiments

import (
	"strings"
	"testing"
)

func TestIDsStable(t *testing.T) {
	ids := IDs()
	if len(ids) != 22 {
		t.Fatalf("%d experiments registered, want 22", len(ids))
	}
	for _, id := range ids {
		if Title(id) == "" {
			t.Errorf("experiment %s has no title", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Options{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestAllExperimentsRun executes every experiment in quick mode and
// verifies each yields non-empty output and a paper comparison.
func TestAllExperimentsRun(t *testing.T) {
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			res, err := Run(id, Options{Quick: true, Seed: 1})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if strings.TrimSpace(res.Output) == "" {
				t.Errorf("%s: empty output", id)
			}
			if strings.TrimSpace(res.PaperNote) == "" {
				t.Errorf("%s: missing paper note", id)
			}
			if res.ID != id || res.Title == "" {
				t.Errorf("%s: metadata %q %q", id, res.ID, res.Title)
			}
		})
	}
}

// TestIngestScalingShowsCrossover pins the ingest_scaling acceptance
// shape: a single bandwidth-throttled reader is reader-bound (starved
// trainer), and the dedup meter contrasts Zipf-skewed traffic (>1)
// against all-unique traffic (exactly 1.00).
func TestIngestScalingShowsCrossover(t *testing.T) {
	res, err := Run("ingest_scaling", Options{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"reader-bound", "in-memory generator baseline",
		"hybrid trainer from disk", "1.00 on all-unique traffic"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("ingest_scaling output missing %q:\n%s", want, res.Output)
		}
	}
	if strings.Contains(res.Output, "WARNING") {
		t.Errorf("throttled single reader failed to starve the trainer:\n%s", res.Output)
	}
}

// TestTelemetryAttributionAcceptance pins straggler_analysis, which
// carries the telemetry attribution: the clean runs' phase spans tile
// the step wall within 1% and the Chrome trace export round-trips, and
// the delayed runs cross the straggler threshold with rank 0 attributed
// (no WARNING anywhere). That clean runs stay under the threshold is
// judged on recorded runs, in the root TestDoctorClassifiesRegimes.
func TestTelemetryAttributionAcceptance(t *testing.T) {
	res, err := Run("straggler_analysis", Options{Quick: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"phase coverage=", "chrome trace:", "observed ms/step",
		"predicted ms/step", "background / overlapped", "registry: hybrid/steps=",
		"straggler-bound", "hot-row skew", "acceptance: clean runs' phases tile"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("straggler_analysis output missing %q:\n%s", want, res.Output)
		}
	}
	if strings.Contains(res.Output, "WARNING") {
		t.Errorf("straggler_analysis acceptance failed:\n%s", res.Output)
	}
}

// TestElasticRecoveryAcceptance pins the elastic_recovery acceptance
// shape: every rank count recovers exactly once, restores verified
// bytes, and lands on a bit-identical curve (no DIVERGED verdict).
func TestElasticRecoveryAcceptance(t *testing.T) {
	res, err := Run("elastic_recovery", Options{Quick: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(res.Output, "bit-identical"); n < 3 {
		t.Errorf("want 3 bit-identical verdicts (1/2/4 ranks), got %d:\n%s", n, res.Output)
	}
	for _, bad := range []string{"DIVERGED", "WARNING"} {
		if strings.Contains(res.Output, bad) {
			t.Errorf("elastic_recovery output contains %q:\n%s", bad, res.Output)
		}
	}
}

// TestFlightRecorderAcceptance pins the flight_recorder acceptance
// shape: every injected incident (loss spike, NaN, rank-0 delay,
// kill/restore) is detected within ±1 step with a complete black-box
// bundle, and the fault run carries rebuild/restore marks.
func TestFlightRecorderAcceptance(t *testing.T) {
	res, err := Run("flight_recorder", Options{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"loss_spike", "loss_nan", "rank_fault",
		"acceptance: every injected incident detected within ±1 step"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("flight_recorder output missing %q:\n%s", want, res.Output)
		}
	}
	if strings.Contains(res.Output, "WARNING") {
		t.Errorf("flight_recorder acceptance failed:\n%s", res.Output)
	}
}

func TestFig10ContainsRatioGrid(t *testing.T) {
	res, err := Run("fig10", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"GPU/CPU throughput ratio", "power efficiency", "4096"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("fig10 output missing %q", want)
		}
	}
}

func TestTable3ContainsAllModels(t *testing.T) {
	res, err := Run("table3", Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"M1prod", "M2prod", "M3prod"} {
		if !strings.Contains(res.Output, m) {
			t.Errorf("table3 missing %s", m)
		}
	}
}

func TestFig12MarksOOM(t *testing.T) {
	res, err := Run("fig12", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "OOM") {
		t.Error("fig12 should mark infeasible GPU placements as OOM")
	}
}

func TestMemtierSweepShape(t *testing.T) {
	res, err := Run("memtier", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cache rows", "bottleneck", "lru", "lfu", "clock", "analytic"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("memtier output missing %q", want)
		}
	}
}

func TestFig14CoversBothPlatforms(t *testing.T) {
	res, err := Run("fig14", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Output, "BigBasin") || !strings.Contains(res.Output, "Zion") {
		t.Error("fig14 must cover both platforms")
	}
}

// TestMixedPrecisionAcceptance pins the precision columns of
// hybrid_scaling: every reduced-precision point stays inside the pinned
// loss tolerance of the fp32/fp32 point at 1/2/4 ranks, the compressed
// wire formats shrink collective traffic at least 2x, and the byte
// meters match the dtype-aware analytic volumes within 2% (no WARNING).
func TestMixedPrecisionAcceptance(t *testing.T) {
	res, err := Run("hybrid_scaling", Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Output, "WARNING") {
		t.Errorf("hybrid_scaling reports violations:\n%s", res.Output)
	}
	for _, want := range []string{"bf16/int8", "fp16/fp16", "baseline",
		"acceptance: all variants within tolerance", "split-SGD", "exposed%",
		"first differs from 1 rank"} {
		if !strings.Contains(res.Output, want) {
			t.Errorf("hybrid_scaling output missing %q:\n%s", want, res.Output)
		}
	}
}
