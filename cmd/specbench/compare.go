package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json that compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// verdict is the judgement of one metric on one workload.
type verdict struct {
	base, head  [3]float64 // q1, median, q3
	wins, pairs int
	worse       float64 // median change as a share of the base median; > 0 is worse
	call        string  // gain, ok, regression or unresolved
}

// judge compares the head runs of one metric with the base runs. pairs
// holds (base, head) values of runs made back to back. A gain needs the
// head to win at least nine tenths of all pairs (a tie wins for neither)
// and the medians to differ by more than the base's interquartile range. A
// regression is a median worse than the base's by more than bound. When
// the base's own spread exceeds bound the metric is unresolved, unless
// every head run is better than every base run.
func judge(base, head []float64, pairs [][2]float64, lowerBetter bool, bound float64) verdict {
	var v verdict
	v.base[0], v.base[1], v.base[2] = quartiles(base)
	v.head[0], v.head[1], v.head[2] = quartiles(head)
	better := func(h, b float64) bool {
		if lowerBetter {
			return h < b
		}
		return h > b
	}
	v.worse = (v.head[1] - v.base[1]) / v.base[1]
	if !lowerBetter {
		v.worse = -v.worse
	}
	v.pairs = len(pairs)
	for _, p := range pairs {
		if better(p[1], p[0]) {
			v.wins++
		}
	}
	allBetter := len(base) > 0 && len(head) > 0
	for _, h := range head {
		for _, b := range base {
			if !better(h, b) {
				allBetter = false
			}
		}
	}
	iqr := v.base[2] - v.base[0]
	switch {
	case v.worse > bound:
		v.call = "regression"
	case iqr/v.base[1] > bound && !allBetter:
		v.call = "unresolved"
	case v.pairs > 0 && v.wins*10 >= 9*v.pairs && v.worse < 0 && math.Abs(v.head[1]-v.base[1]) > iqr:
		v.call = "gain"
	default:
		v.call = "ok"
	}
	return v
}

// loadRuns reads every run file of one workload directory: each holds the
// standard output of one run, whose last line is the result object.
func loadRuns(dir string) (map[string]*result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	runs := make(map[string]*result)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return nil, fmt.Errorf("%s: last line is not a result: %w", filepath.Join(dir, e.Name()), err)
		}
		runs[e.Name()] = &r
	}
	return runs, nil
}

// runCompare judges two sets of untraced runs, laid out as
// DIR/<workload>/<run>, one run's standard output per file. Runs with the
// same file name in both sets are a pair. It prints one row per workload
// and exits 1 when any metric regressed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("specbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baseDir := fs.String("base", "", "runs of the parent commit")
	headDir := fs.String("head", "", "runs of the change")
	bench := fs.String("bench", "BENCHMARK.json", "benchmark description with the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *baseDir == "" || *headDir == "" {
		fmt.Fprintln(stderr, "specbench compare: need -base DIR and -head DIR")
		return 2
	}
	bf, err := readBenchmarkFile(*bench)
	if err != nil {
		fmt.Fprintf(stderr, "specbench compare: %v\n", err)
		return 2
	}
	status := 0
	for _, w := range bf.Workloads {
		var runs [2]map[string]*result
		for i, dir := range []string{*baseDir, *headDir} {
			if runs[i], err = loadRuns(filepath.Join(dir, w.Name)); err != nil {
				fmt.Fprintf(stderr, "specbench compare: %v\n", err)
				return 2
			}
		}
		row, regressed := compareWorkload(w.Name, bf, runs[0], runs[1])
		fmt.Fprintln(stdout, row)
		if regressed {
			status = 1
		}
	}
	return status
}

func compareWorkload(name string, bf *benchmarkFile, base, head map[string]*result) (string, bool) {
	var b strings.Builder
	failedRuns := func(runs map[string]*result) int {
		n := 0
		for _, r := range runs {
			if !r.Correct {
				n++
			}
		}
		return n
	}
	var names []string
	for n := range base {
		if head[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "%s: %d base / %d head runs, %d pairs, failed runs %d / %d",
		name, len(base), len(head), len(names), failedRuns(base), failedRuns(head))
	if len(base) == 0 || len(head) == 0 {
		return b.String() + ": nothing to compare", false
	}
	// A run whose outputs failed a check regresses correctness, whatever
	// its timings say.
	regressed := failedRuns(head) > 0
	for _, m := range bf.EndToEnd {
		values := func(runs map[string]*result) []float64 {
			var out []float64
			for _, r := range runs {
				if v, ok := r.Metrics[m.Name]; ok && r.Correct {
					out = append(out, v.Value)
				}
			}
			return out
		}
		var pairs [][2]float64
		for _, n := range names {
			bv, bok := base[n].Metrics[m.Name]
			hv, hok := head[n].Metrics[m.Name]
			if bok && hok && base[n].Correct && head[n].Correct {
				pairs = append(pairs, [2]float64{bv.Value, hv.Value})
			}
		}
		bv, hv := values(base), values(head)
		if len(bv) == 0 || len(hv) == 0 {
			fmt.Fprintf(&b, " | %s: no runs", m.Name)
			continue
		}
		v := judge(bv, hv, pairs, m.Better == "lower", m.Bound)
		if v.call == "regression" {
			regressed = true
		}
		fmt.Fprintf(&b, " | %s %s %+.1f%% (bound %.0f%%): base %.4g [%.4g, %.4g] head %.4g [%.4g, %.4g] wins %d/%d",
			m.Name, v.call, 100*v.worse, 100*m.Bound, v.base[1], v.base[0], v.base[2], v.head[1], v.head[0], v.head[2], v.wins, v.pairs)
	}
	return b.String(), regressed
}
