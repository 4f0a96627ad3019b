package hybrid

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/train"
)

// ElasticConfig drives RunElastic.
type ElasticConfig struct {
	Cfg core.Config
	// HC configures every (re)built trainer. HC.Recorder, when set, spans
	// recoveries and also receives the fault finding and the
	// "rebuild"/"restore" marks.
	HC Config

	// Store is the durable checkpoint store (required).
	Store *ckpt.Store
	// CkptEvery saves a checkpoint every CkptEvery steps (0: only
	// recover from whatever the store already holds).
	CkptEvery int
	// FullEvery bounds the delta chain: every FullEvery-th save is a
	// full compaction (0: always full).
	FullEvery int
	// Steps is how many steps to run past the store's latest checkpoint
	// (or past the seed, for an empty store).
	Steps int
	// Source produces the replayable batch stream (required).
	Source core.SourceFactory
	// Faults, when non-nil, is armed on every (re)built world. Fired
	// entries persist across rebuilds, so recovery replays clean.
	Faults *collective.FaultSchedule
	// Logf, when non-nil, receives progress lines (kills, restores).
	Logf func(format string, args ...any)
}

// RunElastic is train.Run over hybrid trainers with a required store:
// ec.Steps synchronous steps with durable checkpoints and fault-tolerant
// recovery. When a step dies on an injected (or real) collective abort,
// the world is torn down, a fresh one is built, state rolls back to the
// last durable checkpoint, the batch stream is replayed from that step,
// and training continues. With a deterministic source the recovered loss
// curve is bit-identical to an uninterrupted run — the property the
// elastic_recovery experiment and the kill/restore tests pin.
func RunElastic(ec ElasticConfig) (*train.Result, error) {
	if ec.Store == nil {
		return nil, fmt.Errorf("hybrid: elastic run needs a checkpoint store")
	}
	var t *Trainer
	defer func() {
		if t != nil {
			t.Close()
		}
	}()
	return train.Run(train.Config{
		Build: func() (train.Stepper, error) {
			if t != nil {
				t.Close() // an aborted world cannot rendezvous again
			}
			var err error
			if t, err = New(ec.Cfg, ec.HC); err != nil {
				return nil, err
			}
			t.SetFaults(ec.Faults)
			return t, nil
		},
		Source:    ec.Source,
		Steps:     ec.Steps,
		Store:     ec.Store,
		CkptEvery: ec.CkptEvery,
		FullEvery: ec.FullEvery,
		Faults:    ec.Faults,
		Logf:      ec.Logf,
		Recorder:  ec.HC.Recorder,
	})
}
