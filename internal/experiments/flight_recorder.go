package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hybrid"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/train"
	"repro/internal/xrand"
)

// frOutcome is one injected-incident run of the flight-recorder
// experiment: what was injected where, and where the detector localized
// it.
type frOutcome struct {
	ranks    int
	scenario string
	injected int64
	detected int64 // -1 when no finding fired
	kind     telemetry.AnomalyKind
	bundle   bool
}

func (o frOutcome) localized() bool {
	if o.detected < 0 {
		return false
	}
	d := o.detected - o.injected
	return d >= -1 && d <= 1
}

// frDetected finds the finding of the wanted kind closest to the
// injected step (the detector may legitimately fire on neighbors of a
// multi-step incident).
func frDetected(fr *telemetry.FlightRecorder, kind telemetry.AnomalyKind, injected int64) int64 {
	best := int64(-1)
	for _, f := range fr.FindingsOf(kind) {
		if best < 0 || abs64(f.Step-injected) < abs64(best-injected) {
			best = f.Step
		}
	}
	return best
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// frBundleAt reports whether dir holds a complete blackbox bundle for a
// step within ±1 of the given one.
func frBundleAt(dir string, step int64) bool {
	for _, s := range []int64{step - 1, step, step + 1} {
		b := filepath.Join(dir, fmt.Sprintf("blackbox-%d", s))
		ok := true
		for _, name := range []string{"bundle.json", "timeseries.json", "metrics.json", "trace.json", "doctor.txt"} {
			if _, err := os.Stat(filepath.Join(b, name)); err != nil {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// flightRecorder injects three incident classes — a synthetic loss
// spike (corrupted batch labels), a rank-0 delay fault, and a rank
// kill with checkpoint restore — at known steps across 1/2/4 ranks,
// with the flight recorder attached, and asserts each online detector
// fires, localizes the incident to within ±1 step, and leaves a
// complete blackbox-<step>/ bundle behind. The loss-spike run at one
// rank drives the single-process core.Trainer feed; everything else
// exercises the hybrid trainer (and, for kills, the run loop's
// fault/rebuild/restore marks).
func flightRecorder(opt Options) (Result, error) {
	cfg := core.Config{
		Name:          "flight-recorder",
		DenseFeatures: 16,
		Sparse:        core.UniformSparse(8, 2000, 5),
		EmbeddingDim:  16,
		BottomMLP:     []int{32},
		TopMLP:        []int{32, 16},
		Interaction:   core.DotProduct,
	}
	batch := 64
	iters, spikeAt, nanAt := 36, 24, 34
	delayIters, delayAt, delaySteps := 20, 12, 4
	elasticSteps, killAt, ckptEvery := 28, 18, 8
	rankCounts := []int{1, 2, 4}
	if opt.Quick {
		rankCounts = []int{1, 2}
	}

	root, err := os.MkdirTemp("", "flightrec")
	if err != nil {
		return Result{}, err
	}
	defer os.RemoveAll(root)

	// Calibrate the injected delay against the measured per-step cost:
	// the dip detector needs the stall to exceed the baseline step and
	// the 2-rank straggler index needs it to exceed twice the per-rank
	// self time, so a hard-coded 2ms dies in slow environments (-race
	// runs the same math an order of magnitude slower). 6x the measured
	// single-process step keeps a 2x margin over the tightest bound.
	calGen := data.NewGenerator(cfg, opt.Seed+9, data.DefaultOptions())
	calT := core.NewTrainer(core.NewModel(cfg, xrand.New(opt.Seed+9)), core.TrainerConfig{LR: 0.05})
	const calSteps = 8
	calStart := telemetry.Now()
	for i := 0; i < calSteps; i++ {
		calT.Step(calGen.NextBatch(batch))
	}
	delay := 2 * time.Millisecond
	if d := time.Duration(6 * (telemetry.Now() - calStart) / calSteps); d > delay {
		delay = d
	}

	var outcomes []frOutcome
	var b strings.Builder
	b.WriteString("Flight recorder: online anomaly detection + black-box bundles\n")
	fmt.Fprintf(&b, "(batch %d; loss spike at step %d + NaN at %d, rank-0 delay %v at steps %d..%d,\n"+
		" kill/restore at step %d; every run dumps blackbox-<step>/ bundles)\n\n",
		batch, spikeAt, nanAt, delay, delayAt, delayAt+delaySteps-1, killAt)

	// stragOff disables the straggler detector for the runs that don't
	// inject a delay: per-step self times on sub-millisecond steps
	// jitter, and a noise finding would eat bundle quota.
	const stragOff = 1e9
	openRec := func(dir string, ranks int, tr *telemetry.Tracer, reg *telemetry.Registry, stragIdx float64) (*telemetry.FlightRecorder, error) {
		return telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
			Dir: dir, Tracer: tr, Registry: reg, Ranks: ranks,
			// Per-step self times on sub-millisecond steps jitter more
			// than a whole-run average, so the per-step threshold sits
			// above the run-level StragglerIndexThreshold; the injected
			// delay pushes the index well past both.
			StragglerIndex: stragIdx,
			// One finding per incident step: the localization assert
			// wants the hit at the injected step, not a suppressed
			// repeat of an earlier neighbor. The generous bundle cap
			// keeps scheduling-noise findings from starving the
			// injected incident's dump.
			DebounceSteps: 1,
			MaxBundles:    64,
		})
	}

	for _, ranks := range rankCounts {
		// --- (a) synthetic loss spike + NaN guard ---------------------
		dir := filepath.Join(root, fmt.Sprintf("spike-r%d", ranks))
		reg := telemetry.NewRegistry()
		var fr *telemetry.FlightRecorder
		gen := data.NewGenerator(cfg, opt.Seed+2, data.DefaultOptions())
		corrupt := func(step int, mb *core.MiniBatch) {
			if step == spikeAt {
				for i := range mb.Labels {
					mb.Labels[i] = 8 // far outside {0,1}: BCE jumps an order of magnitude
				}
			}
			if step == nanAt {
				mb.Labels[0] = float32(math.NaN())
			}
		}
		// One rank drives the single-process core.Trainer feed, more the
		// hybrid trainer; the run loop's seam steps either.
		var t train.Stepper
		closeT := func() {}
		if ranks == 1 {
			tr := telemetry.NewTracer(1, 4096)
			if fr, err = openRec(dir, ranks, tr, reg, stragOff); err != nil {
				return Result{}, err
			}
			ct := core.NewTrainer(core.NewModel(cfg, xrand.New(opt.Seed+1)), core.TrainerConfig{LR: 0.05})
			ct.SetTrace(tr, 0)
			ct.SetRecorder(fr)
			t = ct
		} else {
			hc := hybrid.Config{
				Ranks: ranks, LR: 0.05, Seed: opt.Seed + 1, Overlap: true,
				Registry: reg,
			}
			hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
			if fr, err = openRec(dir, ranks, hc.Trace, reg, stragOff); err != nil {
				return Result{}, err
			}
			hc.Recorder = fr
			ht, err := hybrid.New(cfg, hc)
			if err != nil {
				return Result{}, err
			}
			t, closeT = ht, ht.Close
		}
		for step := 0; step < iters; step++ {
			mb := gen.NextBatch(batch)
			corrupt(step, mb)
			if _, err := t.StepBatch(mb); err != nil {
				closeT()
				return Result{}, err
			}
		}
		closeT()
		outcomes = append(outcomes,
			frOutcome{ranks: ranks, scenario: "loss spike", injected: int64(spikeAt),
				detected: frDetected(fr, telemetry.AnomalyLossSpike, int64(spikeAt)),
				kind:     telemetry.AnomalyLossSpike, bundle: frBundleAt(dir, int64(spikeAt))},
			frOutcome{ranks: ranks, scenario: "NaN loss", injected: int64(nanAt),
				detected: frDetected(fr, telemetry.AnomalyLossNaN, int64(nanAt)),
				kind:     telemetry.AnomalyLossNaN, bundle: frBundleAt(dir, int64(nanAt))})

		// --- (b) rank-0 delay: straggler (multi-rank) or throughput dip
		dir = filepath.Join(root, fmt.Sprintf("delay-r%d", ranks))
		reg = telemetry.NewRegistry()
		hc := hybrid.Config{
			Ranks: ranks, LR: 0.05, Seed: opt.Seed + 1, Overlap: ranks > 1,
			Registry: reg,
		}
		hc.Trace = telemetry.NewTracer(hc.ShardCount(), 4096)
		if fr, err = openRec(dir, ranks, hc.Trace, reg, 1.5); err != nil {
			return Result{}, err
		}
		hc.Recorder = fr
		ht, err := hybrid.New(cfg, hc)
		if err != nil {
			return Result{}, err
		}
		var faults []collective.Fault
		for s := delayAt; s < delayAt+delaySteps; s++ {
			faults = append(faults, collective.Fault{
				Kind: collective.FaultDelay, Rank: 0, Step: s, Delay: delay,
			})
		}
		if err := ht.SetFaults(collective.NewFaultSchedule(faults...)); err != nil {
			ht.Close()
			return Result{}, err
		}
		gen = data.NewGenerator(cfg, opt.Seed+3, data.DefaultOptions())
		for step := 0; step < delayIters; step++ {
			if _, _, err := ht.Step(gen.NextBatch(batch)); err != nil {
				ht.Close()
				return Result{}, err
			}
		}
		ht.Close()
		kind := telemetry.AnomalyStraggler
		if ranks == 1 {
			// A single rank has no peers to lag behind; the stall
			// surfaces as a throughput dip instead.
			kind = telemetry.AnomalyThroughputDip
		}
		outcomes = append(outcomes, frOutcome{
			ranks: ranks, scenario: "rank-0 delay", injected: int64(delayAt),
			detected: frDetected(fr, kind, int64(delayAt)),
			kind:     kind, bundle: frBundleAt(dir, int64(delayAt)),
		})

		// --- (c) kill + checkpoint restore via RunElastic -------------
		dir = filepath.Join(root, fmt.Sprintf("kill-r%d", ranks))
		ckptDir := filepath.Join(root, fmt.Sprintf("ck-r%d", ranks))
		store, err := ckpt.OpenStore(ckptDir)
		if err != nil {
			return Result{}, err
		}
		reg = telemetry.NewRegistry()
		ehc := hybrid.Config{Ranks: ranks, LR: 0.05, Seed: opt.Seed + 1, Overlap: ranks > 1, Registry: reg}
		ehc.Trace = telemetry.NewTracer(ehc.ShardCount(), 4096)
		if fr, err = openRec(dir, ranks, ehc.Trace, reg, stragOff); err != nil {
			return Result{}, err
		}
		ehc.Recorder = fr
		fs, err := collective.ParseFaultSchedule(fmt.Sprintf("kill:%d@%d", ranks-1, killAt))
		if err != nil {
			return Result{}, err
		}
		if _, err := hybrid.RunElastic(hybrid.ElasticConfig{
			Cfg: cfg, HC: ehc, Store: store,
			CkptEvery: ckptEvery, FullEvery: 2, Steps: elasticSteps,
			Source: data.ReplaySource(cfg, opt.Seed+4, data.DefaultOptions(), batch),
			Faults: fs,
		}); err != nil {
			return Result{}, err
		}
		marks := map[string]bool{}
		for _, m := range fr.Timeseries().Marks() {
			marks[m.Kind] = true
		}
		o := frOutcome{
			ranks: ranks, scenario: "kill/restore", injected: int64(killAt),
			detected: frDetected(fr, telemetry.AnomalyRankFault, int64(killAt)),
			kind:     telemetry.AnomalyRankFault, bundle: frBundleAt(dir, int64(killAt)),
		}
		outcomes = append(outcomes, o)
		if !marks["rebuild"] || !marks["restore"] {
			fmt.Fprintf(&b, "WARNING: %d-rank kill run missing rebuild/restore marks (got %v)\n", ranks, marks)
		}
	}

	ok := true
	rows := [][]string{{"ranks", "incident", "detector", "injected", "detected", "delta", "bundle", "localized"}}
	for _, o := range outcomes {
		det, delta := "-", "-"
		if o.detected >= 0 {
			det = fmt.Sprintf("%d", o.detected)
			delta = fmt.Sprintf("%+d", o.detected-o.injected)
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", o.ranks), o.scenario, o.kind.String(),
			fmt.Sprintf("%d", o.injected), det, delta,
			fmt.Sprintf("%v", o.bundle), fmt.Sprintf("%v", o.localized() && o.bundle),
		})
		if !o.localized() || !o.bundle {
			ok = false
			fmt.Fprintf(&b, "WARNING: %d-rank %s not localized (injected %d, detected %d, bundle %v)\n",
				o.ranks, o.scenario, o.injected, o.detected, o.bundle)
		}
	}
	b.WriteString(metrics.Table(rows))
	if ok {
		b.WriteString("\nacceptance: every injected incident detected within ±1 step with a complete blackbox-<step>/ bundle\n")
	}

	note := "Paper (§IV): production training efficiency work depends on catching\n" +
		"stragglers, input starvation and quality regressions while the run is\n" +
		"live, not in a post-mortem. Measured: a per-step time-series ring plus\n" +
		"EWMA/threshold detectors localize an injected corrupt-batch loss spike,\n" +
		"a NaN divergence, an injected rank-0 delay (straggler index per step, the\n" +
		"imbalance.go definition) and a mid-run rank kill to within ±1 step at\n" +
		"1/2/4 ranks, and each trigger atomically dumps a black-box bundle\n" +
		"(trace window, metrics snapshot, series tail, doctor verdict) for\n" +
		"offline forensics."
	return Result{Output: b.String(), PaperNote: note}, nil
}
