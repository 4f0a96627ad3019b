package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickEveryWorkload drives every workload through both runs at
// smoke sizes: every code path of the harness, a few steps each.
func TestQuickEveryWorkload(t *testing.T) {
	for _, w := range workloads() {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				dir := t.TempDir()
				var out bytes.Buffer
				err := run([]string{"--workload", w.name, "--trace", trace, "--quick", "--seed", "3", "--workdir", dir}, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				if len(got) != 4 {
					t.Errorf("result has keys %v, want exactly correct, attempted, failed, metrics", got)
				}
				var rep report
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 20 {
					t.Errorf("correct=%t attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
					if _, err := os.Stat(filepath.Join(dir, "trace_"+w.name+".json")); err != nil {
						t.Errorf("no trace written: %v", err)
					}
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v (present=%t), want unit %s", d.name, m, ok, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.name, m.Value)
					}
				}
				if left, _ := filepath.Glob(filepath.Join(dir, w.name+"-*")); len(left) > 0 {
					t.Errorf("scratch data left behind: %v", left)
				}
			})
		}
	}
}

// TestSameSeedSameQuality: inputs are a function of the seed alone, so
// held-out NE repeats exactly; another seed gives other inputs.
func TestSameSeedSameQuality(t *testing.T) {
	w, _ := findWorkload("ckpt_interleaved")
	ne := func(seed int64) float64 {
		res, err := measureEndToEnd(w.quick(), runOpts{seed: seed, quick: true, workdir: t.TempDir()})
		if err != nil || res.failed != 0 {
			t.Fatalf("seed %d: err=%v failed=%d %v", seed, err, res.failed, res.errs)
		}
		return res.metrics["heldout_ne"]
	}
	a, b, c := ne(5), ne(5), ne(6)
	if a != b {
		t.Errorf("seed 5 gave NE %v then %v", a, b)
	}
	if a == c {
		t.Errorf("seeds 5 and 6 gave the same NE %v", a)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness's
// own metric and workload tables in step.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, harness default %d", spec.RunSeconds, runSeconds)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, harness has %s: %s", i, spec.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the harness", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, harness has %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
