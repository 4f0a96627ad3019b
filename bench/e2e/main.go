// Command e2e is the repository's benchmark: six DLRM training workloads
// that each put the cost in a different layer (dense GEMM, sparse tables,
// collectives with fp32 and with int8 wires, the ingest reader tier,
// checkpointing), measured end to end as the training loop's one client
// sees them, and per layer in a separate traced run.
//
//	run.sh --workload sparse_heavy --seed 3 --seconds 12 --trace 0
//	    one run of one workload; the last line of output is the result as
//	    JSON (end-to-end metrics with --trace 0, per-layer with --trace 1)
//	run.sh                 every workload, both runs, each in its own process
//	run.sh -agree          two end-to-end sets back to back, compared against the bounds
//	run.sh -quick          smoke sizes, a few steps per workload
//
// See README.md for what each metric means and which layer should move it.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// runSeconds is BENCHMARK.json's run_seconds, the default for --seconds.
const runSeconds = 15

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a single-workload run prints.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// The closed loop has one client; GEMM and the pipeline stages may use
	// a second core. Pinned so that two machines' numbers mean the same.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("outputs incorrect or operations failed")

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	name := fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "workload seed: inputs are a function of it alone")
	seconds := fs.Float64("seconds", runSeconds, "measuring time of one run")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "smoke run: small tables, narrow MLPs, ~20 steps per workload, no time budget")
	agree := fs.Bool("agree", false, "run two end-to-end sets and fail if they differ by more than the bounds")
	workdir := fs.String("workdir", ".bench_build/e2e-work", "directory for shards, checkpoints and trace_<workload>.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	if *quick {
		*seconds = 0 // a smoke run does its few steps and stops
	}
	o := runOpts{seed: *seed, seconds: *seconds, quick: *quick, workdir: *workdir}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		rep, err := runOne(w, o, *trace == 1, out)
		if err != nil {
			return err
		}
		if !rep.Correct {
			return errIncorrect
		}
		return nil
	}

	// Children inherit every flag but -workload and -agree.
	child := []string{
		"--seed", fmt.Sprint(*seed), "--seconds", fmt.Sprint(*seconds),
		"--workdir", *workdir, fmt.Sprintf("--quick=%t", *quick),
	}
	if *agree {
		return runAgree(child, out)
	}
	ok := true
	for _, w := range workloads() {
		for _, tr := range []string{"0", "1"} {
			rep, err := runChild(w.name, tr, child)
			if err != nil {
				return err
			}
			ok = ok && rep.Correct
			printReport(out, w.name, tr == "1", rep)
		}
	}
	if !ok {
		return errIncorrect
	}
	return nil
}

// runOne measures one workload in this process and prints the result,
// the JSON line last.
func runOne(w workload, o runOpts, traced bool, out io.Writer) (report, error) {
	if o.quick {
		w = w.quick()
	}
	measure, defs := measureEndToEnd, endToEnd
	if traced {
		measure, defs = measureLayers, perLayer
	}
	res, err := measure(w, o)
	if err != nil {
		return report{}, err
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "e2e:", w.name+":", e)
	}
	rep := report{
		Correct:   res.failed == 0 && res.metrics != nil,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, d := range defs {
		if v, ok := res.metrics[d.name]; ok {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return report{}, fmt.Errorf("%s: metric %s is %v", w.name, d.name, v)
			}
			rep.Metrics[d.name] = metricValue{v, d.unit}
		}
	}
	printReport(out, w.name, traced, rep)
	js, err := json.Marshal(rep)
	if err != nil {
		return report{}, err
	}
	fmt.Fprintln(out, string(js))
	return rep, nil
}

func printReport(out io.Writer, workload string, traced bool, rep report) {
	defs, kind := endToEnd, "end-to-end"
	if traced {
		defs, kind = perLayer, "per-layer"
	}
	fmt.Fprintf(out, "%s  %s  gomaxprocs=%d  attempted=%d failed=%d correct=%t\n",
		workload, kind, runtime.GOMAXPROCS(0), rep.Attempted, rep.Failed, rep.Correct)
	for _, d := range defs {
		if v, ok := rep.Metrics[d.name]; ok {
			fmt.Fprintf(out, "  %-38s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
}

// runChild re-executes this binary for one workload, so that peak RSS
// and every cache start fresh, and parses the JSON line it ends with.
func runChild(workload, trace string, args []string) (report, error) {
	exe, err := os.Executable()
	if err != nil {
		return report{}, err
	}
	cmd := exec.Command(exe, append([]string{"--workload", workload, "--trace", trace}, args...)...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return report{}, fmt.Errorf("%s: %w", workload, err)
	}
	// A child that exits non-zero after printing its result found its
	// outputs incorrect; the report says so.
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if jerr := json.Unmarshal(lines[len(lines)-1], &rep); jerr != nil {
		return report{}, fmt.Errorf("%s: no result (%v): %v", workload, err, jerr)
	}
	return rep, nil
}

// runAgree measures every workload end to end twice and requires every
// metric of the second set to be within its bound of the first, in either
// direction, and held-out NE to be the same number: same seed, same
// machine, same arithmetic. Both sets come from this process's children
// under the same pinned GOMAXPROCS, so there is no run to refuse.
func runAgree(args []string, out io.Writer) error {
	var sets [2]map[string]report
	for i := range sets {
		sets[i] = make(map[string]report)
		for _, w := range workloads() {
			rep, err := runChild(w.name, "0", args)
			if err != nil {
				return err
			}
			if !rep.Correct {
				return fmt.Errorf("%s: %w", w.name, errIncorrect)
			}
			sets[i][w.name] = rep
		}
	}
	var bad []string
	fmt.Fprintf(out, "%-18s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads() {
		for _, d := range endToEnd {
			a, b := sets[0][w.name].Metrics[d.name].Value, sets[1][w.name].Metrics[d.name].Value
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.bound || (d.name == "heldout_ne" && a != b) {
				verdict = "  DISAGREE"
				bad = append(bad, w.name+"/"+d.name)
			}
			fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", w.name, d.name, a, b, 100*diff, 100*d.bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("two runs of the same code disagree on %s", strings.Join(bad, ", "))
	}
	return nil
}
