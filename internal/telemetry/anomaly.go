package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
)

// AnomalyKind classifies an online detector finding.
type AnomalyKind uint8

const (
	// AnomalyLossSpike fires when the step loss sits more than
	// lossZScore EWMA standard deviations above the EWMA mean.
	AnomalyLossSpike AnomalyKind = iota
	// AnomalyLossNaN fires on a NaN or ±Inf loss — divergence, not a
	// statistical outlier, so it has no warmup and maximum severity.
	AnomalyLossNaN
	// AnomalyThroughputDip fires when examples/sec drops below
	// (1 − dipFraction) of its EWMA baseline.
	AnomalyThroughputDip
	// AnomalyIngestStarvation fires when the trainer spent more than
	// starveFraction of the step blocked on the input pipeline.
	AnomalyIngestStarvation
	// AnomalyStraggler fires when the per-step straggler index (max
	// rank self time / mean self time, the Imbalance definition)
	// crosses StragglerIndex.
	AnomalyStraggler
	// AnomalyRankFault is recorded via FlightRecorder.RecordFault when
	// a collective RankError (kill/fail) aborts a step.
	AnomalyRankFault
	numAnomalyKinds
)

var anomalyKindNames = [numAnomalyKinds]string{
	"loss_spike",
	"loss_nan",
	"throughput_dip",
	"ingest_starvation",
	"straggler",
	"rank_fault",
}

// String implements fmt.Stringer.
func (k AnomalyKind) String() string {
	if int(k) < len(anomalyKindNames) {
		return anomalyKindNames[k]
	}
	return fmt.Sprintf("AnomalyKind(%d)", int(k))
}

// MarshalJSON renders the kind as its snake_case name.
func (k AnomalyKind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses the snake_case name back (bundle readers).
func (k *AnomalyKind) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		s = s[1 : len(s)-1]
	}
	for i, n := range anomalyKindNames {
		if n == s {
			*k = AnomalyKind(i)
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown anomaly kind %q", s)
}

// AnomalyFinding is one structured detector hit: what fired, at which
// step, how far outside the baseline the observation sat, and a
// human-readable detail line.
type AnomalyFinding struct {
	Kind AnomalyKind `json:"kind"`
	// Step is the offending training step (the step whose sample
	// triggered the detector, or RankError.Step for faults).
	Step int64 `json:"step"`
	// Severity is a 0–10 urgency score (10 = divergence/fault).
	Severity float64 `json:"severity"`
	// Value is the observed quantity (loss, examples/sec, fraction,
	// index or ns — per Kind).
	Value float64 `json:"value"`
	// Baseline is what the detector expected (EWMA mean, threshold).
	Baseline float64 `json:"baseline"`
	Detail   string  `json:"detail"`
}

// String renders the finding as one log line.
func (f AnomalyFinding) String() string {
	return fmt.Sprintf("%s @ step %d (severity %.1f): %s", f.Kind, f.Step, f.Severity, f.Detail)
}

// anomalyFindingAlias strips AnomalyFinding's methods so the shadow
// struct below can embed it without recursing into MarshalJSON.
type anomalyFindingAlias AnomalyFinding

// anomalyFindingJSON shadows Value/Baseline with the non-finite-safe
// float form: a loss_nan finding's Value IS NaN, and the bundle
// manifest that carries it as trigger must still serialize.
type anomalyFindingJSON struct {
	anomalyFindingAlias
	Value    jsonFloat `json:"value"`
	Baseline jsonFloat `json:"baseline"`
}

func (f AnomalyFinding) MarshalJSON() ([]byte, error) {
	return json.Marshal(anomalyFindingJSON{
		anomalyFindingAlias: anomalyFindingAlias(f),
		Value:               jsonFloat(f.Value),
		Baseline:            jsonFloat(f.Baseline),
	})
}

func (f *AnomalyFinding) UnmarshalJSON(b []byte) error {
	var doc anomalyFindingJSON
	if err := json.Unmarshal(b, &doc); err != nil {
		return err
	}
	*f = AnomalyFinding(doc.anomalyFindingAlias)
	f.Value = float64(doc.Value)
	f.Baseline = float64(doc.Baseline)
	return nil
}

// Detector thresholds. See DESIGN.md ("Flight recorder") for the math.
const (
	// lossZScore is the EWMA z-score above which a loss sample counts
	// as a spike. 6σ keeps the detector quiet on the heavy-
	// tailed per-batch loss noise of small-batch training while still
	// firing on order-of-magnitude jumps (corrupt batch, wire drift).
	lossZScore = 6.0
	// dipFraction: throughput below (1−0.5)× the EWMA baseline
	// — i.e. a >2× slowdown — counts as a dip.
	dipFraction = 0.5
	// starveFraction: spending over half the step blocked on
	// ingest is reader-bound territory (the doctor's verdict line).
	starveFraction = 0.5
	// warmupSteps is how many samples the EWMA detectors absorb
	// before they may fire; early-run loss is legitimately steep.
	warmupSteps = 8
	// DefaultDebounceSteps is the per-kind refractory window: once a
	// kind fires, repeats within this many steps are suppressed so one
	// incident yields one finding (and one bundle), not a burst.
	DefaultDebounceSteps = 32
	// ewmaAlpha is the smoothing factor for the loss/throughput
	// baselines: an effective memory of ~1/α = 20 steps.
	ewmaAlpha = 0.05
)

// anomalyConfig is the detectors' setting: the straggler index
// threshold, the world size that gates the straggler detector (it needs
// > 1 rank), and the per-kind debounce window in steps.
type anomalyConfig struct {
	stragIdx float64
	ranks    int
	debounce int64
}

// anomalyState is the online detector state: EWMA mean/variance of the
// loss and an EWMA throughput baseline, updated once per sample with a
// handful of float ops — no allocation, no history scan.
type anomalyState struct {
	cfg      anomalyConfig
	seen     int
	lossMean float64
	lossVar  float64
	thptMean float64
	lastFire [numAnomalyKinds]int64 // last fired step per kind, +1 (0 = never)
}

// fire applies the per-kind debounce: it reports whether a finding of
// kind at step falls outside the kind's refractory window, and if so
// opens a new window at step. A detector formats its finding only after
// fire says yes, so a suppressed repeat allocates nothing.
func (a *anomalyState) fire(kind AnomalyKind, step int64) bool {
	if last := a.lastFire[kind]; last != 0 && step-(last-1) < a.cfg.debounce {
		return false
	}
	a.lastFire[kind] = step + 1
	return true
}

// observe updates the detector state with sample s and appends any
// findings the debounce lets through to dst (reusing its backing
// array), returning the extended slice. A step with no finding, or only
// suppressed ones, does not allocate.
func (a *anomalyState) observe(s StepSample, dst []AnomalyFinding) []AnomalyFinding {
	// NaN/Inf guard: no warmup, and no EWMA update (a NaN would poison
	// the baseline for the rest of the run).
	if math.IsNaN(s.Loss) || math.IsInf(s.Loss, 0) {
		if a.fire(AnomalyLossNaN, s.Step) {
			dst = append(dst, AnomalyFinding{
				Kind: AnomalyLossNaN, Step: s.Step, Severity: 10,
				Value: s.Loss, Baseline: a.lossMean,
				Detail: fmt.Sprintf("loss %v (EWMA baseline %.4f): model diverged", s.Loss, a.lossMean),
			})
		}
		a.seen++
		return dst
	}

	warm := a.seen >= warmupSteps
	if warm {
		// Loss spike: one-sided EWMA z-score (drops are good news).
		sigma := math.Sqrt(a.lossVar)
		if sigma < 1e-12 {
			sigma = 1e-12
		}
		if z := (s.Loss - a.lossMean) / sigma; z >= lossZScore && a.fire(AnomalyLossSpike, s.Step) {
			sev := 5 + math.Min(5, z-lossZScore)
			dst = append(dst, AnomalyFinding{
				Kind: AnomalyLossSpike, Step: s.Step, Severity: sev,
				Value: s.Loss, Baseline: a.lossMean,
				Detail: fmt.Sprintf("loss %.4f is %.1fσ above EWMA mean %.4f", s.Loss, z, a.lossMean),
			})
		}
		// Throughput dip vs the EWMA baseline.
		if thpt := s.ExamplesPerSec(); thpt > 0 && a.thptMean > 0 &&
			thpt < (1-dipFraction)*a.thptMean && a.fire(AnomalyThroughputDip, s.Step) {
			drop := 1 - thpt/a.thptMean
			dst = append(dst, AnomalyFinding{
				Kind: AnomalyThroughputDip, Step: s.Step, Severity: 3 + 5*drop,
				Value: thpt, Baseline: a.thptMean,
				Detail: fmt.Sprintf("%.0f ex/s, %.0f%% below EWMA baseline %.0f ex/s",
					thpt, 100*drop, a.thptMean),
			})
		}
	}

	// The starvation fraction needs no baseline, only a valid step time.
	if s.StepNS > 0 {
		if frac := float64(s.StarvedNS) / float64(s.StepNS); frac >= starveFraction && a.fire(AnomalyIngestStarvation, s.Step) {
			dst = append(dst, AnomalyFinding{
				Kind: AnomalyIngestStarvation, Step: s.Step, Severity: 3 + 5*frac,
				Value: frac, Baseline: starveFraction,
				Detail: fmt.Sprintf("trainer starved %.0f%% of the step waiting on ingest", 100*frac),
			})
		}
	}

	// Straggler-index crossing (multi-rank only): same index Imbalance
	// reports post-hoc, evaluated per step.
	if a.cfg.ranks > 1 && s.StragglerIndex >= a.cfg.stragIdx && a.fire(AnomalyStraggler, s.Step) {
		dst = append(dst, AnomalyFinding{
			Kind: AnomalyStraggler, Step: s.Step,
			Severity: 3 + math.Min(5, 2*(s.StragglerIndex-a.cfg.stragIdx)),
			Value:    s.StragglerIndex, Baseline: a.cfg.stragIdx,
			Detail: fmt.Sprintf("straggler index %.2f (threshold %.2f), slowest rank %d",
				s.StragglerIndex, a.cfg.stragIdx, s.SlowestRank),
		})
	}

	// Update the EWMA baselines after testing, so a spike is judged
	// against the pre-spike mean. West-style EWMA variance.
	d := s.Loss - a.lossMean
	a.lossMean += ewmaAlpha * d
	a.lossVar = (1 - ewmaAlpha) * (a.lossVar + ewmaAlpha*d*d)
	if thpt := s.ExamplesPerSec(); thpt > 0 {
		if a.thptMean == 0 {
			a.thptMean = thpt
		} else {
			a.thptMean += ewmaAlpha * (thpt - a.thptMean)
		}
	}
	if a.seen == 0 {
		// Seed the loss baseline on the first sample instead of pulling
		// the mean up from zero.
		a.lossMean, a.lossVar = s.Loss, 0
	}
	a.seen++
	return dst
}
