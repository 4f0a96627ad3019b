// Package train is the one run loop under every trainer: the policy of
// how a training run is driven — feed, step, recycle; open the stream
// where the trainer stands; resume or cold-start; checkpoint on a
// cadence; and on a step error rebuild, roll back and replay — written
// once against a small trainer seam (Stepper) that the single-process
// core.Trainer and the synchronous hybrid.Trainer both satisfy. What
// differs between trainers sits under the step (DESIGN.md, "The run
// loop").
package train

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// Stepper is the seam a trainer presents to the run loop.
type Stepper interface {
	// StepBatch trains on one batch of at least Ranks() examples and
	// returns its loss. A non-nil error means the step aborted and the
	// trainer is poisoned: it must not be stepped or checkpointed again.
	StepBatch(b *core.MiniBatch) (loss float64, err error)
	// Iter returns the number of steps taken (restores rewind it).
	Iter() int
	// Ranks returns the smallest batch StepBatch accepts.
	Ranks() int
	SaveCheckpoint(store *ckpt.Store, fullEvery int) (ckpt.SaveInfo, error)
	RestoreCheckpoint(store *ckpt.Store) (ckpt.RestoreInfo, error)
}

// Span drives t from src for up to n steps, recycling every batch, and
// returns the mean loss over the steps taken and their count. A finite
// source ending early (io.EOF) is not an error, the count just comes up
// short; a batch with fewer examples than t.Ranks() — a finite stream's
// partial tail — is recycled and skipped, not stepped. A step error is
// returned as the trainer gave it.
func Span(t Stepper, src core.BatchSource, n int) (meanLoss float64, steps int, err error) {
	var sum float64
	steps, stepErr, err := span(t, src, n, func(_ int, loss float64) error {
		sum += loss
		return nil
	})
	if err == nil {
		err = stepErr
	}
	if steps > 0 {
		meanLoss = sum / float64(steps)
	}
	return meanLoss, steps, err
}

// span is the inner loop of every run. It reports a step abort (stepErr,
// which Run may recover from) apart from source and after-step failures
// (err, which it may not). after sees each completed step.
func span(t Stepper, src core.BatchSource, n int, after func(step int, loss float64) error) (steps int, stepErr, err error) {
	for steps < n {
		b, err := src.NextBatch()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return steps, nil, nil
			}
			return steps, nil, fmt.Errorf("train: batch source at step %d: %w", t.Iter(), err)
		}
		if b.Batch() < t.Ranks() {
			src.Recycle(b)
			continue
		}
		step := t.Iter()
		loss, stepErr := t.StepBatch(b)
		src.Recycle(b)
		if stepErr != nil {
			return steps, stepErr, nil
		}
		steps++
		if err := after(step, loss); err != nil {
			return steps, nil, err
		}
	}
	return steps, nil, nil
}

// Config drives Run.
type Config struct {
	// Build constructs the trainer (required). Run calls it once to start
	// and once per recovery, so a repeated call must first release the
	// trainer the previous call returned — Run never closes one — and arm
	// Faults on the new world. The caller keeps the live trainer (for
	// evaluation, reports and the final Close) through the closure.
	Build func() (Stepper, error)
	// Source opens the batch stream at a step (required).
	Source core.SourceFactory
	// Steps is how many steps to run, counted from where the trainer
	// starts: the store's latest checkpoint, or the seed.
	Steps int
	// Store, when non-nil, makes the run durable: it resumes from the
	// latest checkpoint, saves every CkptEvery steps, and recovers from
	// step errors. Without one a step error ends the run.
	Store *ckpt.Store
	// CkptEvery saves a checkpoint every CkptEvery steps (0: never; the
	// run still recovers into whatever the store holds).
	CkptEvery int
	// FullEvery bounds the delta chain: every FullEvery-th save is a
	// full compaction (0: always full).
	FullEvery int
	// Faults is the schedule Build arms. Run reads only its length, to
	// bound recoveries: each kill/fail fires once, plus one for an abort
	// no schedule explains.
	Faults *collective.FaultSchedule
	// Logf, when non-nil, receives progress lines (resumes, saves,
	// faults, rejoins).
	Logf func(format string, args ...any)
	// Recorder, when non-nil, receives each step error as an
	// AnomalyRankFault finding plus "restore"/"rebuild" marks — the
	// annotated events a black-box bundle localizes a kill with. Attach
	// the same recorder to the trainer in Build for the per-step series.
	Recorder *telemetry.FlightRecorder
	// OnStep, when non-nil, sees every completed step after its
	// checkpoint (if one was due). Replayed steps are seen again.
	OnStep func(step int, loss float64)
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Result reports a run.
type Result struct {
	// Start is the step the run began at; Steps counts the steps
	// completed past it. Losses[i] is the loss of step Start+i, replayed
	// entries overwritten — the curve a monitoring system would keep.
	Start  int
	Steps  int
	Losses []float64
	// Wall is the time spent stepping and checkpointing, replays
	// included; RecoveryWall the time between detecting a fault and
	// holding a rebuilt, restored trainer again.
	Wall         time.Duration
	Recoveries   int
	RecoveryWall time.Duration
	// BytesRestored totals the verified checkpoint bytes restores read.
	BytesRestored int64
	// Saves counts checkpoints written; LastRoot is the final manifest
	// Merkle root, read back once the last write has published ("" when
	// no checkpoint was written).
	Saves    int
	LastRoot string
}

// Run trains for c.Steps steps. It builds the trainer, rolls it to the
// store's latest checkpoint (or cold-starts from the seed), opens the
// batch stream at the trainer's step, and spans toward the target,
// checkpointing on the cadence. When a step aborts and a store is
// present, it rebuilds through c.Build, rolls back the same way, reopens
// the stream at the restored step and replays; with a deterministic,
// positionable source the loss curve is then bit-identical to an
// uninterrupted run's — a fault before the first checkpoint restarts
// from the seed and replays the whole prefix. An uninterrupted run is
// the fault-free case of the same loop. Checkpoints are written in the
// background; a run returns only after the last write has published,
// and a failed write fails the run.
func Run(c Config) (res *Result, err error) {
	if c.Build == nil || c.Source == nil {
		return nil, fmt.Errorf("train: run needs a Build closure and a Source factory")
	}
	res = &Result{Losses: make([]float64, c.Steps)}
	if c.Store != nil {
		defer func() {
			_, man, werr := c.Store.Latest() // the barrier: no write outlives the run
			if werr != nil && err == nil {
				err = werr
			}
			if werr == nil && man != nil && res.Saves > 0 {
				res.LastRoot = man.Root
			}
		}()
	}

	// start is the one place a run restores or cold-starts.
	start := func() (Stepper, error) {
		t, err := c.Build()
		if err != nil || c.Store == nil {
			return t, err
		}
		info, err := t.RestoreCheckpoint(c.Store)
		switch {
		case err == nil:
			res.BytesRestored += info.Bytes
			verb := "resumed"
			if res.Recoveries > 0 {
				verb = "restored"
			}
			c.logf("checkpoint: %s %s", verb, info)
			c.Recorder.Mark(int64(info.Step), "restore",
				fmt.Sprintf("rolled back to checkpoint %s (%d bytes)", info.Name, info.Bytes))
		case errors.Is(err, ckpt.ErrNoCheckpoint):
			c.logf("checkpoint: store empty, cold start")
		default:
			return nil, err
		}
		return t, nil
	}

	t, err := start()
	if err != nil {
		return res, err
	}
	res.Start = t.Iter()
	end := res.Start + c.Steps
	after := func(step int, loss float64) error {
		res.Losses[step-res.Start] = loss
		res.Steps = max(res.Steps, step+1-res.Start)
		if c.Store != nil && c.CkptEvery > 0 && (step+1)%c.CkptEvery == 0 {
			// FullEvery 0 means every save is full, which is AutoSave's
			// fullEvery 1: its 0 never compacts.
			info, err := t.SaveCheckpoint(c.Store, max(c.FullEvery, 1))
			if err != nil {
				return fmt.Errorf("train: checkpoint at step %d: %w", step+1, err)
			}
			res.Saves++
			c.logf("checkpoint: saved %s", info)
		}
		if c.OnStep != nil {
			c.OnStep(step, loss)
		}
		return nil
	}

	maxRecoveries := c.Faults.Len() + 1
	for {
		src, release, err := c.Source(t.Iter())
		if err != nil {
			return res, fmt.Errorf("train: opening batch stream at step %d: %w", t.Iter(), err)
		}
		t0 := telemetry.Now()
		_, stepErr, err := span(t, src, end-t.Iter(), after)
		res.Wall += time.Duration(telemetry.Now() - t0)
		release()
		if err != nil || stepErr == nil {
			return res, err // failed for good, reached the target, or the stream ended
		}
		if c.Store == nil {
			return res, stepErr
		}

		// Fault detected: roll back to the last durable barrier.
		res.Recoveries++
		if res.Recoveries > maxRecoveries {
			return res, fmt.Errorf("train: giving up after %d recoveries: %w", res.Recoveries-1, stepErr)
		}
		c.logf("step %d failed (%v); recovering", t.Iter(), stepErr)
		c.Recorder.RecordFault(int64(t.Iter()), stepErr)
		rec0 := telemetry.Now()
		if t, err = start(); err != nil {
			return res, fmt.Errorf("train: rebuilding after %v: %w", stepErr, err)
		}
		res.RecoveryWall += time.Duration(telemetry.Now() - rec0)
		c.Recorder.Mark(int64(t.Iter()), "rebuild",
			fmt.Sprintf("world rebuilt with %d ranks after %v", t.Ranks(), stepErr))
		c.logf("rejoined %d ranks at step %d", t.Ranks(), t.Iter())
	}
}
