// Command dlrmtrain trains a real DLRM on synthetic click data and
// reports loss, normalized entropy, and throughput — the minimal
// end-to-end exercise of the training stack. -mode=hybrid runs the same
// workload on the synchronous hybrid-parallel engine (data-parallel MLPs
// via all-reduce, model-parallel embeddings via all-to-all) and prints
// the paper-style operator breakdown. -data=file:<dir> swaps the
// in-memory generator for the staged ingestion pipeline over a sharded
// on-disk dataset (-readers parallel decoders, and each batch's RecD
// dedup view built there, off the trainer), printing the pipeline's
// per-stage meters. -ckpt.dir enables durable sharded checkpoints (full
// + incremental) every -ckpt.every iterations, -resume continues from
// the latest one (the synthetic stream reopens at the restored step),
// and -faults injects collective faults that the run survives by
// rolling back to the last checkpoint and rejoining. Every mode runs the
// same loop (internal/train); -mode only picks the trainer.
//
//	dlrmtrain -dense 64 -sparse 8 -batch 256 -iters 500 -lr 0.05
//	dlrmtrain -mode hybrid -ranks 4 -batch 256 -iters 500
//	dlrmtrain -data file:/tmp/ds -materialize -readers 4
//	dlrmtrain -ckpt.dir /tmp/ck -ckpt.every 100 -iters 200 && dlrmtrain -ckpt.dir /tmp/ck -resume -iters 100
//	dlrmtrain -mode hybrid -ranks 2 -ckpt.dir /tmp/ck2 -ckpt.every 50 -faults kill:1@120
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/hw"
	"repro/internal/hybrid"
	"repro/internal/ingest"
	"repro/internal/perfmodel"
	"repro/internal/placement"
	"repro/internal/telemetry"
	"repro/internal/tensor"
	"repro/internal/train"
	"repro/internal/xrand"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// feed is the resolved batch supply: an in-memory generator (with
// held-out evaluation) or the on-disk ingestion pipeline (with meters).
type feed struct {
	open core.SourceFactory
	gen  *data.Generator  // non-nil in synthetic mode (enables eval)
	pipe *ingest.Pipeline // non-nil in file mode (enables meters)
	done func()
	once sync.Once
}

// close shuts the feed down exactly once. runTraining calls it before
// exporting telemetry — Tracer.Snapshot needs the ingest stage
// goroutines quiescent — and run's defer covers the error paths.
func (f *feed) close() {
	if f.done != nil {
		f.once.Do(f.done)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlrmtrain", flag.ContinueOnError)
	fs.SetOutput(out)
	dense := fs.Int("dense", 32, "dense feature count")
	sparse := fs.Int("sparse", 8, "sparse feature count")
	hash := fs.Int("hash", 10000, "hash size per table")
	dim := fs.Int("dim", 16, "embedding dimension")
	batch := fs.Int("batch", 256, "mini-batch size (global, in hybrid mode)")
	iters := fs.Int("iters", 500, "training iterations")
	lr := fs.Float64("lr", 0.05, "learning rate")
	seed := fs.Int64("seed", 1, "seed")
	mode := fs.String("mode", "single", "trainer: single (one process) or hybrid (synchronous hybrid-parallel)")
	ranks := fs.Int("ranks", 2, "synchronous ranks in hybrid mode")
	platform := fs.String("platform", "BigBasin", "platform whose interconnect prices hybrid collectives")
	dataFlag := fs.String("data", "synthetic", "batch supply: synthetic (in-memory generator) or file:<dir> (sharded on-disk dataset)")
	readers := fs.Int("readers", 2, "parallel shard decoders in file mode")
	materialize := fs.Bool("materialize", false, "write the synthetic dataset to the -data dir first if it has no manifest")
	traceFile := fs.String("telemetry.trace", "", "write a Chrome trace_event JSON of the run to this file")
	httpAddr := fs.String("telemetry.http", "", "serve /metrics, /debug/vars and /debug/pprof on this address for the run's duration")
	report := fs.Bool("telemetry.report", false, "print the per-phase attribution report and ASCII timeline after training")
	doctor := fs.Bool("telemetry.doctor", false, "diagnose the run after training: boundedness verdict, straggler analysis, ranked findings")
	watch := fs.Bool("telemetry.watch", false, "arm the flight recorder and render the ASCII sparkline dashboard of the per-step time-series at each progress interval")
	blackbox := fs.String("telemetry.blackbox", "", "arm the flight recorder to dump blackbox-<step>/ bundles into this directory when an online anomaly detector fires")
	ckptDir := fs.String("ckpt.dir", "", "durable checkpoint directory (enables periodic checkpointing)")
	ckptEvery := fs.Int("ckpt.every", 100, "iterations between checkpoints when -ckpt.dir is set")
	resume := fs.Bool("resume", false, "continue from the latest checkpoint in -ckpt.dir: the synthetic stream reopens at the restored step, a file: stream restarts from its beginning")
	faults := fs.String("faults", "", "collective fault schedule, e.g. kill:1@120,delay:0@40+2ms (hybrid mode, needs -ckpt.dir)")
	precTables := fs.String("precision.tables", "fp32", "embedding-table storage dtype: fp32, bf16 or fp16 (fp32 masters + split-SGD either way)")
	precWire := fs.String("precision.wire", "fp32", "collective wire format in hybrid mode: fp32, fp16, bf16 or int8 (per-chunk scaled)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Rejected here, these would panic deep in the build or never return:
	// the synthetic stream never ends, and the run loop skips every batch
	// smaller than the trainer's rank count.
	switch {
	case math.IsNaN(*lr) || math.IsInf(*lr, 0) || *lr <= 0:
		return fmt.Errorf("dlrmtrain: -lr must be positive and finite, got %v", *lr)
	case *iters < 0:
		return fmt.Errorf("dlrmtrain: -iters must not be negative, got %d", *iters)
	case *batch < 1:
		return fmt.Errorf("dlrmtrain: -batch must be positive, got %d", *batch)
	case *ranks < 1:
		return fmt.Errorf("dlrmtrain: -ranks must be positive, got %d", *ranks)
	case *readers < 1:
		return fmt.Errorf("dlrmtrain: -readers must be positive, got %d", *readers)
	case *mode == "hybrid" && *batch < *ranks:
		return fmt.Errorf("dlrmtrain: -batch %d is smaller than -ranks %d", *batch, *ranks)
	}
	// Checked in full before telemetry or the checkpoint store creates
	// anything, so a refused schedule leaves no -ckpt.dir behind.
	var faultSched *collective.FaultSchedule
	if *faults != "" {
		switch {
		case *ckptDir == "":
			return fmt.Errorf("dlrmtrain: -faults needs -ckpt.dir to recover into")
		case *mode != "hybrid":
			return fmt.Errorf("dlrmtrain: -faults needs -mode=hybrid (single mode has no collectives)")
		case *dataFlag != "synthetic":
			return fmt.Errorf("dlrmtrain: -faults needs -data=synthetic (recovery replays the batch stream)")
		}
		var err error
		if faultSched, err = collective.ParseFaultSchedule(*faults); err != nil {
			return fmt.Errorf("dlrmtrain: -faults: %w", err)
		}
		if err := faultSched.CheckRanks(*ranks); err != nil {
			return fmt.Errorf("dlrmtrain: -faults: %w", err)
		}
	}

	tableDT, err := tensor.ParseDType(*precTables)
	if err != nil {
		return err
	}
	wire, err := collective.ParseWireFormat(*precWire)
	if err != nil {
		return err
	}

	cfg := core.Config{
		Name:          "dlrmtrain",
		DenseFeatures: *dense,
		Sparse:        core.UniformSparse(*sparse, *hash, 5),
		EmbeddingDim:  *dim,
		BottomMLP:     []int{64},
		TopMLP:        []int{64, 32},
		Interaction:   core.DotProduct,
		TableDType:    tableDT,
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if tableDT != tensor.FP32 {
		fmt.Fprintf(out, "precision: %s embedding tables (fp32 masters, split-SGD), %s lookup-path bytes\n",
			tableDT, core.HumanBytes(cfg.EmbeddingBytes()))
	}

	tel, err := newTelemetry(out, *traceFile, *httpAddr, *report, *doctor, *watch, *blackbox, *mode, *ranks, *dataFlag, *readers)
	if err != nil {
		return err
	}

	// The checkpoint store opens after telemetry so its save/restore
	// spans land on the tracer's dedicated "ckpt" shard.
	co, err := openCkpt(*ckptDir, *ckptEvery, *resume, tel)
	if err != nil {
		return err
	}
	co.faults = faultSched

	fd, cfg, err := openFeed(out, cfg, *dataFlag, *batch, *readers, *materialize, *seed, tel)
	if err != nil {
		return err
	}
	defer fd.close()
	fmt.Fprintf(out, "model: %d dense, %d sparse x %d rows, %s embeddings\n",
		cfg.DenseFeatures, cfg.NumSparse(), cfg.Sparse[0].HashSize, core.HumanBytes(cfg.EmbeddingBytes()))

	return runTraining(out, cfg, fd, *mode, *batch, *iters, *lr, *seed, *ranks, *platform, wire, tel, co)
}

// fullCompactEvery bounds the delta chain: every 8th periodic save is a
// full compaction, the rest stream only rows touched since the last save.
const fullCompactEvery = 8

// ckptOpts is the resolved durability configuration of a run; the zero
// value (no -ckpt.dir) trains without checkpoints.
type ckptOpts struct {
	store  *ckpt.Store
	every  int
	faults *collective.FaultSchedule
}

func openCkpt(dir string, every int, resume bool, tel *telem) (ckptOpts, error) {
	var co ckptOpts
	if dir == "" {
		if resume {
			return co, fmt.Errorf("dlrmtrain: -resume needs -ckpt.dir")
		}
		return co, nil
	}
	if every <= 0 {
		return co, fmt.Errorf("dlrmtrain: -ckpt.every must be positive, got %d", every)
	}
	var err error
	if tel != nil {
		co.store, err = ckpt.OpenStoreWith(dir, tel.reg, tel.tracer, tel.ckptShard)
	} else {
		co.store, err = ckpt.OpenStore(dir)
	}
	if err != nil {
		return co, err
	}
	co.every = every
	// The run loop resumes whatever the store holds; without -resume that
	// must be nothing, or a cold start's deltas would chain onto another
	// run's checkpoints.
	if !resume {
		name, _, err := co.store.Latest()
		if err != nil {
			return co, err
		}
		if name != "" {
			return co, fmt.Errorf("dlrmtrain: %s already holds %s: pass -resume to continue that run, or use an empty -ckpt.dir", dir, name)
		}
	}
	return co, nil
}

// telem bundles the optional observability surfaces of a run: one tracer
// shared by the trainer (shards [0, feedShard)) and the ingest pipeline
// (shards from feedShard), one registry absorbing every subsystem meter,
// and the export destinations chosen on the command line. A nil telem
// (no -telemetry.* flag set) keeps every hot path untraced.
type telem struct {
	tracer    *telemetry.Tracer
	reg       *telemetry.Registry
	rec       *telemetry.FlightRecorder
	feedShard int
	ckptShard int
	traceFile string
	report    bool
	doctor    bool
	watch     bool
}

func newTelemetry(out io.Writer, traceFile, httpAddr string, report, doctor, watch bool, blackbox, mode string, ranks int, dataFlag string, readers int) (*telem, error) {
	if traceFile == "" && httpAddr == "" && !report && !doctor && !watch && blackbox == "" {
		return nil, nil
	}
	trainShards := 1
	if mode == "hybrid" {
		trainShards = hybrid.Config{Ranks: ranks, Overlap: ranks > 1}.ShardCount()
	}
	feedShards := 0
	if strings.HasPrefix(dataFlag, "file:") {
		feedShards = ingest.Options{Readers: readers}.ShardCount()
	}
	t := &telem{
		tracer:    telemetry.NewTracer(trainShards+feedShards+1, 1<<15),
		reg:       telemetry.NewRegistry(),
		feedShard: trainShards,
		ckptShard: trainShards + feedShards,
		traceFile: traceFile,
		report:    report,
		doctor:    doctor,
		watch:     watch,
	}
	if mode != "hybrid" {
		t.tracer.NameShard(0, "trainer")
	}
	t.tracer.NameShard(t.ckptShard, "ckpt")
	telemetry.RegisterPhaseHists(t.reg, t.tracer)
	// The flight recorder rides every telemetry-enabled run: its
	// per-step sampling is part of the <3% observability budget, and
	// /timeseries plus the dashboard want the series even when no
	// bundle directory is armed.
	recRanks := 1
	if mode == "hybrid" {
		recRanks = ranks
	}
	rec, err := telemetry.OpenFlightRecorder(telemetry.FlightRecorderConfig{
		Dir: blackbox, Tracer: t.tracer, Registry: t.reg, Ranks: recRanks,
		Logf: func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) },
	})
	if err != nil {
		return nil, err
	}
	t.rec = rec
	if blackbox != "" {
		fmt.Fprintf(out, "telemetry: flight recorder armed, black-box bundles land in %s\n", blackbox)
	}
	if httpAddr != "" {
		srv, err := telemetry.Serve(httpAddr, t.reg, telemetry.WithTimeseries(rec.Timeseries()))
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "telemetry: serving /metrics, /timeseries, /healthz, /debug/vars, /debug/pprof on %s\n", srv.Addr)
	}
	return t, nil
}

// dashboard renders the live sparkline panel at a progress interval.
func (t *telem) dashboard(out io.Writer) {
	if t == nil || !t.watch {
		return
	}
	fmt.Fprint(out, t.rec.Timeseries().Dashboard(72))
}

// finish exports the collected trace: the attribution report and ASCII
// timeline to out, and/or the Chrome trace_event JSON to -telemetry.trace.
func (t *telem) finish(out io.Writer, predicted map[telemetry.Phase]float64) error {
	if t == nil {
		return nil
	}
	snap := t.tracer.Snapshot()
	if t.watch {
		fmt.Fprintf(out, "\ntimeseries dashboard:\n%s", t.rec.Timeseries().Dashboard(72))
	}
	if findings := t.rec.Findings(); len(findings) > 0 {
		fmt.Fprintf(out, "\nflight recorder: %d finding(s)\n", len(findings))
		for _, f := range findings {
			fmt.Fprintf(out, "  %s\n", f)
		}
		for _, b := range t.rec.Bundles() {
			fmt.Fprintf(out, "  bundle: %s\n", b)
		}
	}
	// The doctor's report carries the attribution it was read from, so
	// -telemetry.report renders that one rather than a second walk.
	var doc telemetry.DoctorReport
	if t.doctor {
		doc = telemetry.Diagnose(telemetry.DoctorInput{
			Snap: snap, Metrics: t.reg.Snapshot(), Predicted: predicted,
		})
	}
	if t.report {
		attr := doc.Attribution
		if !t.doctor {
			attr = telemetry.Attribute(snap)
		}
		fmt.Fprintf(out, "\nattribution (observed vs analytic perfmodel):\n%s", attr.Render(predicted))
		fmt.Fprintf(out, "\ntimeline:\n%s", snap.Timeline(72))
		fmt.Fprintf(out, "\nregistry snapshot:\n%s", t.reg.Snapshot().Render())
	}
	if t.doctor {
		fmt.Fprintf(out, "\n%s", doc.Render())
	}
	if t.traceFile != "" {
		f, err := os.Create(t.traceFile)
		if err != nil {
			return err
		}
		if err := telemetry.WriteChromeTrace(f, snap); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(out, "telemetry: wrote Chrome trace (%d spans, %d dropped) to %s\n",
			len(snap.Spans), snap.Dropped, t.traceFile)
	}
	return nil
}

// openFeed resolves -data. In file mode the dataset's feature space
// (dense width, hash sizes) replaces the flag-built one so the model
// matches what is on disk.
func openFeed(out io.Writer, cfg core.Config, dataFlag string, batch, readers int, materialize bool, seed int64, tel *telem) (*feed, core.Config, error) {
	switch {
	case dataFlag == "synthetic":
		// The stream is positionable: every (re)start of the run loop
		// reopens it at the trainer's step. gen only forks the eval sets.
		return &feed{
			open: data.ReplaySource(cfg, seed+1, data.DefaultOptions(), batch),
			gen:  data.NewGenerator(cfg, seed+1, data.DefaultOptions()),
		}, cfg, nil

	case strings.HasPrefix(dataFlag, "file:"):
		dir := strings.TrimPrefix(dataFlag, "file:")
		if dir == "" {
			return nil, cfg, fmt.Errorf("dlrmtrain: -data file: needs a directory")
		}
		if materialize {
			if _, err := os.Stat(dir + "/MANIFEST.json"); os.IsNotExist(err) {
				fmt.Fprintf(out, "materializing synthetic dataset in %s (8 shards x %d examples)\n", dir, 4*batch)
				gen := data.NewGenerator(cfg, seed+1, data.DefaultOptions())
				if err := gen.WriteShards(dir, 8, 4*batch); err != nil {
					return nil, cfg, err
				}
			}
		}
		ds, err := ingest.OpenDataset(dir)
		if err != nil {
			return nil, cfg, err
		}
		fileCfg := ds.Config()
		fileCfg.Name = cfg.Name
		fileCfg.EmbeddingDim = cfg.EmbeddingDim
		fileCfg.BottomMLP = cfg.BottomMLP
		fileCfg.TopMLP = cfg.TopMLP
		fileCfg.Interaction = cfg.Interaction
		if err := fileCfg.Validate(); err != nil {
			ds.Close()
			return nil, cfg, err
		}
		iOpt := ingest.Options{
			BatchSize: batch, Readers: readers, Dedup: true, Seed: seed + 2,
		}
		if tel != nil {
			iOpt.Registry, iOpt.Trace, iOpt.TraceShard = tel.reg, tel.tracer, tel.feedShard
		}
		p, err := ingest.Open(ds, fileCfg, iOpt)
		if err != nil {
			ds.Close()
			return nil, cfg, err
		}
		fmt.Fprintf(out, "ingest: %s (%d examples, %d shards, %s), %d readers\n",
			dir, ds.Examples(), len(ds.Manifest.Shards), core.HumanBytes(ds.Bytes()), readers)
		// Shuffled across parallel readers, the file stream cannot seek:
		// a resumed run reads it from the beginning.
		open := func(int) (core.BatchSource, func(), error) { return p, func() {}, nil }
		return &feed{open: open, pipe: p, done: func() { p.Close(); ds.Close() }}, fileCfg, nil

	default:
		return nil, cfg, fmt.Errorf("dlrmtrain: unknown -data %q (synthetic, file:<dir>)", dataFlag)
	}
}

// progressIters chunks the training loop for periodic reporting.
func progressIters(iters int) int {
	if iters < 100 {
		return iters
	}
	return 100
}

// runTraining drives one run through train.Run. -mode picks the build
// closure and the mode-specific report lines; the loop — positioned
// stream, resume or cold start, checkpoint cadence, and with -faults the
// rollback and replay that keep the loss curve bit-identical to an
// uninterrupted run — is the same for every trainer.
func runTraining(out io.Writer, cfg core.Config, fd *feed, mode string, batch, iters int, lr float64, seed int64, ranks int, platform string, wire collective.WireFormat, tel *telem, co ckptOpts) error {
	rc := train.Config{
		Source: fd.open, Steps: iters,
		Store: co.store, CkptEvery: co.every, FullEvery: fullCompactEvery, Faults: co.faults,
		Logf: func(format string, args ...any) { fmt.Fprintf(out, format+"\n", args...) },
	}
	if tel != nil {
		rc.Recorder = tel.rec
	}
	var (
		evalModel func() *core.Model
		ht        *hybrid.Trainer
		predicted map[telemetry.Phase]float64
	)
	switch mode {
	case "single":
		rc.Build = func() (train.Stepper, error) {
			m := core.NewModel(cfg, xrand.New(seed))
			tr := core.NewTrainer(m, core.TrainerConfig{Optimizer: core.OptAdagrad, LR: lr})
			if tel != nil {
				tr.SetTrace(tel.tracer, 0)
				tr.SetRecorder(tel.rec)
			}
			evalModel = func() *core.Model { return m }
			return tr, nil
		}
	case "hybrid":
		p, err := hw.ByName(platform)
		if err != nil {
			return err
		}
		link := collective.LinkFor(p)
		// One registry for the whole run, so the step counters and
		// collective meters accumulate across recovery rebuilds.
		hc := hybrid.Config{
			Ranks: ranks, LR: lr, Seed: seed, Overlap: ranks > 1, Link: link,
			WireA2A: wire, WireAllReduce: wire, Registry: telemetry.NewRegistry(),
		}
		if tel != nil {
			hc.Registry, hc.Trace, hc.TraceShard = tel.reg, tel.tracer, 0
			hc.Recorder = tel.rec
		}
		fmt.Fprintf(out, "hybrid: %d ranks, link %s, all-reduce overlapped=%v, wire %s\n",
			ranks, link.Name, ranks > 1, wire)
		if co.faults != nil {
			fmt.Fprintf(out, "hybrid: elastic (%d scheduled faults, checkpoint every %d iters)\n",
				co.faults.Len(), co.every)
		}
		rc.Build = func() (train.Stepper, error) {
			if ht != nil {
				ht.Close() // an aborted world cannot rendezvous again
			}
			var err error
			if ht, err = hybrid.New(cfg, hc); err != nil {
				return nil, err
			}
			if err := ht.SetFaults(co.faults); err != nil {
				return nil, fmt.Errorf("dlrmtrain: -faults: %w", err)
			}
			evalModel = ht.EvalModel
			return ht, nil
		}
		defer func() {
			if ht != nil {
				ht.Close()
			}
		}()
		predicted = predictedPhases(cfg, p, batch)
	default:
		return fmt.Errorf("dlrmtrain: unknown mode %q (single, hybrid)", mode)
	}

	// Progress lines average the steps since the last one; they fall
	// every progressIters steps, at every checkpoint, and at the end.
	var sum float64
	n, first, trained := 0, -1, 0
	report := func() {
		if n == 0 {
			return
		}
		if fd.gen != nil {
			eval := core.Evaluate(evalModel(), fd.gen.Fork(999).EvalSet(4, 256))
			fmt.Fprintf(out, "iter %5d  loss %.4f  NE %.4f  acc %.4f\n", trained, sum/float64(n), eval.NE, eval.Accuracy)
		} else {
			fmt.Fprintf(out, "iter %5d  loss %.4f\n", trained, sum/float64(n))
		}
		tel.dashboard(out)
		sum, n = 0, 0
	}
	rc.OnStep = func(step int, loss float64) {
		if first < 0 {
			first = step
		}
		if step < first+trained {
			sum, n = 0, 0 // rolled back: the open chunk's steps are being replayed
		}
		sum += loss
		n++
		trained = step + 1 - first
		if n == progressIters(iters) || trained == iters || (co.store != nil && (step+1)%co.every == 0) {
			report()
		}
	}

	res, err := train.Run(rc)
	if err != nil {
		return err
	}
	report() // a finite dataset can end mid-chunk
	reportThroughput(out, res.Steps, batch, res.Wall)
	reportIngest(out, fd)
	if ht != nil {
		// Cumulative breakdown, replays included: the trainer's own
		// registry counters and collective meters.
		reg := ht.Registry()
		ns := func(name string) float64 { return float64(reg.Counter("hybrid/" + name + "_ns").Load()) }
		if step := ns("step"); step > 0 {
			fmt.Fprintf(out, "step breakdown: compute %.0f%%  all-to-all %.0f%%  all-reduce %.0f%%  exposed comm %.0f%%\n",
				100*ns("compute")/step, 100*ns("a2a")/step, 100*ns("ar")/step, 100*ns("exposed")/step)
		}
		if stepped := reg.Counter("hybrid/steps").Load(); stepped > 0 {
			st := ht.CollectiveStats()
			bpe := wire.BytesPerElem()
			fmt.Fprintf(out, "collectives: all-to-all %s/iter (analytic %s), all-reduce %s/iter (analytic %s)\n",
				core.HumanBytes(st.AllToAll.Bytes/stepped),
				core.HumanBytes(int64(perfmodel.HybridAllToAllBytesWire(cfg, batch, ranks, bpe))),
				core.HumanBytes(st.AllReduce.Bytes/stepped),
				core.HumanBytes(int64(perfmodel.HybridAllReduceBytesWire(cfg, ranks, bpe))))
		}
	}
	if co.faults != nil {
		fmt.Fprintf(out, "elastic: %d steps, %d recoveries (%v rebuild+restore, %s restored), %d checkpoints\n",
			res.Steps, res.Recoveries, res.RecoveryWall.Round(time.Millisecond),
			core.HumanBytes(res.BytesRestored), res.Saves)
	}
	fd.close() // quiesce ingest goroutines before snapshotting the trace
	return tel.finish(out, predicted)
}

// predictedPhases estimates the analytic per-phase step time for the
// attribution report's predicted column. Attribution is still useful
// without it, so estimation failures (e.g. the model does not fit the
// platform) degrade to an observed-only report.
func predictedPhases(cfg core.Config, p hw.Platform, batch int) map[telemetry.Phase]float64 {
	plan, err := placement.Fit(cfg, p, placement.GPUMemory, 0)
	if err != nil {
		return nil
	}
	bd, err := perfmodel.Estimate(perfmodel.Scenario{Cfg: cfg, Platform: p, Batch: batch, Plan: plan})
	if err != nil {
		return nil
	}
	return perfmodel.PredictedPhases(bd)
}

func reportThroughput(out io.Writer, iters, batch int, elapsed time.Duration) {
	examples := float64(iters * batch)
	fmt.Fprintf(out, "trained %d examples in %v (%.0f examples/sec)\n",
		int(examples), elapsed.Round(time.Millisecond), examples/elapsed.Seconds())
}

func reportIngest(out io.Writer, fd *feed) {
	if fd.pipe == nil {
		return
	}
	m := fd.pipe.Meters()
	fmt.Fprintf(out, "ingest meters: read %.1f MB/s, dedup ratio %.2f, starved %.0f%%, ring occupancy %.2f\n",
		m.ReadMBps(), m.DedupRatio(), 100*m.StarvationFrac(), m.Occupancy())
}
