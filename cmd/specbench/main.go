// Command specbench is specml's end-to-end benchmark. It builds the system
// in-process from the repository's packages, runs one seeded workload,
// checks every output, and prints every metric by name with its unit.
//
//	specbench -workload serve-predict -seed 1 -seconds 20 -trace 0
//	specbench -workload train-ms -seed 1 -seconds 20 -trace 1 -spans DIR
//	specbench compare -base DIR -head DIR
//
// An untraced run (-trace 0) prints the end-to-end metrics; a traced run
// (-trace 1) runs the same workload with spans at the benchmark's own
// boundaries and prints the per-layer metrics. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit status is 0 only when every check passed. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runBench(os.Args[1:], os.Stdout, os.Stderr))
}

// opts are the settings of one run.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool   // small inputs and short phases, for the contract test
	spans    string // directory a traced run writes its spans to ("" = none)
	tamper   func(want [][]float64)
}

// quickSeconds is the run length of -quick.
const quickSeconds = 1.5

// phases splits a serving run: a short unmeasured warm-up, then two thirds
// of the run at the fixed rate and one third in the closed loop.
func (o opts) phases() (warm, open, closed time.Duration) {
	total := time.Duration(o.seconds * float64(time.Second))
	return total / 20, total * 2 / 3, total / 3
}

// poolSize is how many distinct inputs the generator sends a model. A
// monitor input is a 5-spectrum window 40x the size of a Table-1 spectrum,
// so its pool is smaller.
func (o opts) poolSize(s stack) int {
	switch {
	case o.quick:
		return 32
	case s == nmrLSTM:
		return 256
	}
	return 1024
}

func (o opts) sweepBatches() int {
	if o.quick {
		return 2
	}
	return sweepBatches
}

// trainSamples is the corpus size of a training workload.
func (o opts) trainSamples(s stack) int {
	rate := msSamplesPerSecond
	if s == nmrLSTM {
		rate = lstmWindowsPerSecond
	}
	return int(math.Round(float64(rate) * o.seconds))
}

// outcome is everything one run measured.
type outcome struct {
	e2e       map[string]float64
	layer     map[string]float64
	attempted int
	failed    int
	failures  []string // the first few failed checks, for the log
	diag      []string
}

func newOutcome() *outcome {
	return &outcome{e2e: make(map[string]float64), layer: make(map[string]float64)}
}

func (o *outcome) note(format string, args ...any) {
	o.diag = append(o.diag, fmt.Sprintf(format, args...))
}

const setupRepeats = 5

// repeatSetup sets the system up setupRepeats times, tearing down all but
// the last, and returns the last with the median set-up time in seconds.
// Set-up is timed several times because one sample of it is too noisy to
// bound.
func repeatSetup[E any](setup func() (E, error), teardown func(E)) (E, float64, error) {
	var env E
	times := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(env)
			runtime.GC()
		}
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		env = e
	}
	return env, median(times), nil
}

type workload struct {
	name string
	run  func(opts) (*outcome, error)
}

var workloads = []workload{
	{"serve-predict", func(o opts) (*outcome, error) { return runServe(o, false) }},
	{"serve-monitor", func(o opts) (*outcome, error) { return runServe(o, true) }},
	{"train-ms", func(o opts) (*outcome, error) { return runTrain(o, msTable1) }},
	{"train-lstm", func(o opts) (*outcome, error) { return runTrain(o, nmrLSTM) }},
}

type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. On serve-* a latency is one
// request timed from its due time in the fixed-rate phase, throughput is
// completions per second in the closed loop and an op is a fixed-rate
// request; on train-* a latency is one optimizer step (render wait,
// forward, backward, update), throughput is training samples per second of
// FitSource and an op is a training sample. Tail percentiles are logged,
// not gated: from run to run they spread wider than any usable bound.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_heap_mib", "MiB"},
}

// perLayer lists the metrics of a traced run. A workload reports 0 for a
// layer it does not run (fit.* on serve-*, front.* and serve.* on train-*,
// the nn sweep of a stack it neither serves nor trains).
func perLayer() ([]metricDef, error) {
	defs := []metricDef{
		{"gen.late_p99_ms", "ms"},
		{"front.self_ms", "ms"},
		{"front.hop_ms", "ms"},
		{"serve.handler_ms", "ms"},
		{"serve.decode_ms", "ms"},
		{"serve.preprocess_ms", "ms"},
		{"serve.batch_wait_ms", "ms"},
		{"serve.batch_size_mean", "count"},
		{"serve.forward_ms", "ms"},
		{"serve.encode_ms", "ms"},
		{"serve.publish_ms", "ms"},
		{"fit.render_batch_ms", "ms"},
		{"fit.render_wait_ms", "ms"},
		{"fit.compute_ms", "ms"},
		{"fit.layer_coverage", "ratio"},
		{"trace.p50_ms", "ms"},
		{"trace.throughput_per_s", "1/s"},
	}
	for _, s := range stacks {
		names, err := s.layerNames()
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			unit := "ms"
			if strings.HasSuffix(n, "_gflops") {
				unit = "GFLOP/s"
			}
			defs = append(defs, metricDef{n, unit})
		}
	}
	return defs, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the printed object: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one.
func (o *outcome) result(traced bool) (*result, error) {
	defs, vals := endToEnd, o.e2e
	if traced {
		var err error
		if defs, err = perLayer(); err != nil {
			return nil, err
		}
		vals = o.layer
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return nil, fmt.Errorf("specbench: metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("specbench: metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func runBench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	quick := fs.Bool("quick", false, "run for about 1.5 s on small inputs through the same code paths")
	spans := fs.String("spans", "", "directory a traced run writes <workload>.jsonl spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "specbench: need -workload (%s), -trace 0|1 and -seconds > 0\n", strings.Join(names, ", "))
		return 2
	}
	o := opts{workload: w.name, seed: *seed, seconds: *seconds, trace: *trace == 1, quick: *quick, spans: *spans}
	if o.quick {
		o.seconds = quickSeconds
	}
	return report(w, o, stdout, stderr)
}

// report runs one workload and prints its log lines and result; it returns
// the process exit status.
func report(w *workload, o opts, stdout, stderr io.Writer) int {
	out, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %s: %v\n", w.name, err)
		return 1
	}
	res, err := out.result(o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, line := range out.diag {
		fmt.Fprintf(stdout, "# %s\n", line)
	}
	for _, f := range out.failures {
		fmt.Fprintf(stdout, "# FAILED %s\n", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "specbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}
