package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func TestRunTrainsSmallModel(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-dense", "8", "-sparse", "2", "-hash", "100",
		"-dim", "8", "-batch", "32", "-iters", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"model:", "iter", "examples/sec"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-dense", "0"}, &out); err == nil {
		t.Error("zero dense features accepted")
	}
	if err := run([]string{"-mode", "async"}, &out); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := run([]string{"-mode", "hybrid", "-platform", "TPUv4"}, &out); err == nil {
		t.Error("unknown platform accepted")
	}
	// Each of these once panicked, spun forever or trained to NaN, so
	// every case runs under its own deadline.
	small := []string{"-dense", "4", "-sparse", "2", "-hash", "50", "-dim", "4", "-iters", "3"}
	for _, bad := range [][]string{
		{"-lr", "0"},
		{"-lr", "-0.1"},
		{"-lr", "NaN"},
		{"-lr", "+Inf"},
		{"-iters", "-3"},
		{"-batch", "0"},
		{"-batch", "-5"},
		{"-mode", "hybrid", "-batch", "1"},
	} {
		args := append(append([]string(nil), small...), bad...)
		done := make(chan error, 1)
		go func() {
			defer func() {
				if r := recover(); r != nil {
					done <- fmt.Errorf("panic: %v", r)
				}
			}()
			var out strings.Builder
			if err := run(args, &out); err == nil {
				done <- errors.New("accepted")
			} else {
				done <- nil
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%v: %v", bad, err)
			}
		case <-time.After(10 * time.Second):
			t.Errorf("%v: run did not return", bad)
		}
	}
}

// TestRunFileModeSingle smoke-tests -data=file:<dir> with -materialize:
// the dataset is written, then trained from disk through the staged
// pipeline with parallel readers and dedup, in single mode.
func TestRunFileModeSingle(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-data", "file:" + dir, "-materialize", "-readers", "2", "-dedup",
		"-dense", "8", "-sparse", "2", "-hash", "100", "-dim", "8",
		"-batch", "32", "-iters", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"materializing", "ingest:", "2 readers", "dedup=true",
		"iter", "examples/sec", "ingest meters:", "dedup ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Second run against the existing dataset must not re-materialize.
	var out2 strings.Builder
	err = run([]string{"-data", "file:" + dir, "-materialize", "-readers", "1",
		"-dense", "8", "-sparse", "2", "-hash", "100", "-dim", "8",
		"-batch", "32", "-iters", "10"}, &out2)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out2.String(), "materializing") {
		t.Errorf("existing dataset re-materialized:\n%s", out2.String())
	}
}

// TestRunFileModeHybrid smoke-tests the on-disk pipeline feeding the
// synchronous hybrid-parallel trainer.
func TestRunFileModeHybrid(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-mode", "hybrid", "-ranks", "2", "-data", "file:" + dir,
		"-materialize", "-readers", "2", "-dedup",
		"-dense", "8", "-sparse", "4", "-hash", "200", "-dim", "8",
		"-batch", "32", "-iters", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hybrid: 2 ranks", "ingest:", "iter", "step breakdown:",
		"collectives:", "ingest meters:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTelemetryTraceGolden validates the -telemetry.trace export against
// the Chrome trace_event golden schema: a traceEvents array whose "M"
// metadata events name every shard and whose "X" complete events carry
// the full (name, cat, ts, dur, pid, tid) key set with names drawn from
// the telemetry phase taxonomy.
func TestTelemetryTraceGolden(t *testing.T) {
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	var out strings.Builder
	err := run([]string{"-mode", "hybrid", "-ranks", "2", "-dense", "8", "-sparse", "4",
		"-hash", "200", "-dim", "8", "-batch", "32", "-iters", "20",
		"-telemetry.trace", traceFile, "-telemetry.report"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"attribution", "phase coverage=", "timeline:",
		"registry snapshot:", "hybrid/steps", "telemetry: wrote Chrome trace"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", trace.DisplayTimeUnit)
	}
	phases := map[string]bool{}
	for p := telemetry.Phase(0); p < telemetry.NumPhases; p++ {
		phases[p.String()] = true
	}
	var meta, complete int
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
			if ev["name"] != "thread_name" {
				t.Errorf("metadata event name %v, want thread_name", ev["name"])
			}
		case "X":
			complete++
			for _, key := range []string{"name", "cat", "ts", "dur", "pid", "tid"} {
				if _, ok := ev[key]; !ok {
					t.Fatalf("complete event missing %q: %v", key, ev)
				}
			}
			if !phases[ev["name"].(string)] {
				t.Errorf("event name %v is not a telemetry phase", ev["name"])
			}
		default:
			t.Errorf("unexpected event phase type %v", ev["ph"])
		}
	}
	if meta < 2 || complete == 0 {
		t.Errorf("trace has %d metadata and %d complete events, want >=2 and >0", meta, complete)
	}
}

func TestRunFileModeErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-data", "file:"}, &out); err == nil {
		t.Error("empty file dir accepted")
	}
	if err := run([]string{"-data", "file:" + t.TempDir()}, &out); err == nil {
		t.Error("missing dataset accepted without -materialize")
	}
	if err := run([]string{"-data", "hdfs://x"}, &out); err == nil {
		t.Error("unknown -data scheme accepted")
	}
}

// TestRunCheckpointResume smoke-tests -ckpt.dir/-ckpt.every/-resume in
// single mode: the first run saves periodic checkpoints, the second
// resumes from the latest one.
func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-dense", "8", "-sparse", "2", "-hash", "100", "-dim", "8",
		"-batch", "32", "-ckpt.dir", dir, "-ckpt.every", "10"}
	var out strings.Builder
	if err := run(append(base, "-iters", "20"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "checkpoint: saved ck-00000020") {
		t.Errorf("output missing checkpoint save:\n%s", out.String())
	}
	var out2 strings.Builder
	if err := run(append(base, "-resume", "-iters", "10"), &out2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "checkpoint: resumed ck-00000020") {
		t.Errorf("output missing resume line:\n%s", out2.String())
	}
	if !strings.Contains(out2.String(), "checkpoint: saved ck-00000030") {
		t.Errorf("resumed run did not continue the checkpoint sequence:\n%s", out2.String())
	}
}

// lastProgress returns the loss and NE fields of the run's last progress
// line ("iter N  loss L  NE E  acc A").
func lastProgress(t *testing.T, out string) string {
	t.Helper()
	last := ""
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) == 8 && f[0] == "iter" {
			last = f[3] + " " + f[5]
		}
	}
	if last == "" {
		t.Fatalf("no progress line in:\n%s", out)
	}
	return last
}

// TestResumeContinuesTheStream pins what -resume promises: 20 iterations,
// then 10 resumed, end on the loss and NE of one uninterrupted 30 — which
// takes the restored state and the batch stream reopened at step 20, not
// at batch 0.
func TestResumeContinuesTheStream(t *testing.T) {
	for _, mode := range [][]string{{"-mode", "single"}, {"-mode", "hybrid", "-ranks", "2"}} {
		t.Run(mode[1], func(t *testing.T) {
			dlrmtrain := func(dir string, extra ...string) string {
				t.Helper()
				args := append([]string{"-dense", "8", "-sparse", "4", "-hash", "200", "-dim", "8",
					"-batch", "32", "-ckpt.dir", dir, "-ckpt.every", "10"}, mode...)
				var out strings.Builder
				if err := run(append(args, extra...), &out); err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			split := t.TempDir()
			dlrmtrain(split, "-iters", "20")
			resumed := lastProgress(t, dlrmtrain(split, "-resume", "-iters", "10"))
			if whole := lastProgress(t, dlrmtrain(t.TempDir(), "-iters", "30")); resumed != whole {
				t.Errorf("resumed run ends on loss/NE %s, uninterrupted run on %s", resumed, whole)
			}
		})
	}
}

// TestRunHybridFaults smoke-tests the elastic path: a scheduled rank
// kill mid-run, recovery from the checkpoint store, and a completed run.
func TestRunHybridFaults(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	err := run([]string{"-mode", "hybrid", "-ranks", "2", "-dense", "8", "-sparse", "4",
		"-hash", "200", "-dim", "8", "-batch", "32", "-iters", "30",
		"-ckpt.dir", dir, "-ckpt.every", "10", "-faults", "kill:1@15"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"elastic (1 scheduled faults", "kill fault at step 15",
		"restored ck-00000010", "rejoined 2 ranks at step 10", "1 recoveries"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunCkptFlagErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-resume"}, &out); err == nil {
		t.Error("-resume without -ckpt.dir accepted")
	}
	if err := run([]string{"-faults", "kill:0@1"}, &out); err == nil {
		t.Error("-faults without -ckpt.dir accepted")
	}
	if err := run([]string{"-ckpt.dir", t.TempDir(), "-ckpt.every", "0"}, &out); err == nil {
		t.Error("non-positive -ckpt.every accepted")
	}
	if err := run([]string{"-ckpt.dir", t.TempDir(), "-faults", "kill:0@1"}, &out); err == nil {
		t.Error("-faults in single mode accepted")
	}
	if err := run([]string{"-mode", "hybrid", "-ckpt.dir", t.TempDir(), "-faults", "bogus"}, &out); err == nil {
		t.Error("malformed -faults accepted")
	}
	used := t.TempDir()
	small := []string{"-dense", "8", "-sparse", "2", "-hash", "100", "-dim", "8", "-batch", "32",
		"-iters", "10", "-ckpt.dir", used, "-ckpt.every", "10"}
	if err := run(small, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(small, &out); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Errorf("cold start onto a used store = %v, want a refusal naming -resume", err)
	}
}

func TestRunHybridMode(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-mode", "hybrid", "-ranks", "2", "-dense", "8", "-sparse", "4",
		"-hash", "200", "-dim", "8", "-batch", "32", "-iters", "20"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hybrid: 2 ranks", "iter", "step breakdown:",
		"collectives:", "examples/sec"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunMixedPrecision smoke-tests the -precision.* flags: bf16 tables
// on the single trainer, bf16 tables + int8 wire in hybrid mode (with
// the dtype-aware analytic volumes in the collectives line), and flag
// validation.
func TestRunMixedPrecision(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-dense", "8", "-sparse", "2", "-hash", "100",
		"-dim", "8", "-batch", "32", "-iters", "20", "-precision.tables", "bf16"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "precision: bf16 embedding tables") {
		t.Errorf("missing precision line:\n%s", out.String())
	}

	out.Reset()
	err = run([]string{"-mode", "hybrid", "-ranks", "2", "-dense", "8", "-sparse", "2",
		"-hash", "100", "-dim", "8", "-batch", "32", "-iters", "20",
		"-precision.tables", "bf16", "-precision.wire", "int8"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wire int8", "collectives:", "analytic"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("hybrid output missing %q:\n%s", want, out.String())
		}
	}

	if err := run([]string{"-precision.tables", "fp8"}, &out); err == nil {
		t.Error("unknown table dtype accepted")
	}
	if err := run([]string{"-precision.wire", "fp64"}, &out); err == nil {
		t.Error("unknown wire format accepted")
	}
}
