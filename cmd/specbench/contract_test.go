package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestContract runs every workload once in -quick mode, traced, and checks
// that the metric names it reports — end to end and per layer — are
// exactly the lists in BENCHMARK.json.
func TestContract(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(listed, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, specbench runs %v", listed, ours)
	}
	wantE2E := make(map[string]string)
	for _, m := range bf.EndToEnd {
		wantE2E[m.Name] = m.Unit
	}
	wantLayer := make(map[string]string)
	for _, m := range bf.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		out, err := w.run(opts{workload: w.name, seed: 3, seconds: quickSeconds, trace: true, quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if out.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, out.failed, out.attempted, out.failures)
		}
		for _, traced := range []bool{false, true} {
			res, err := out.result(traced)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			want, measured := wantE2E, out.e2e
			if traced {
				want, measured = wantLayer, out.layer
			}
			if got := units(res.Metrics); !sameMap(got, want) {
				t.Errorf("%s traced=%v: reports %v, BENCHMARK.json lists %v", w.name, traced, keys(got), keys(want))
			}
			for name := range measured {
				if _, ok := want[name]; !ok {
					t.Errorf("%s: measures %s, which BENCHMARK.json does not list", w.name, name)
				}
			}
			if !traced {
				for name, v := range res.Metrics {
					if !(v.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, v.Value)
					}
				}
			}
		}
	}
}

// TestWrongReferenceIsAFailure corrupts one expected output and checks that
// the requests sent that input fail the check and the run exits non-zero.
func TestWrongReferenceIsAFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	w := &workloads[0]
	o := opts{workload: w.name, seed: 5, seconds: quickSeconds, quick: true, tamper: func(want [][]float64) {
		want[0][0] = math.Nextafter(want[0][0], 1)
	}}
	var stdout, stderr bytes.Buffer
	if code := report(w, o, &stdout, &stderr); code == 0 {
		t.Fatalf("exit status 0 with a corrupted reference; stderr: %s", stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if res.Correct || res.Failed == 0 || res.Failed >= res.Attempted {
		t.Errorf("correct=%v failed=%d attempted=%d, want a few failures", res.Correct, res.Failed, res.Attempted)
	}
}

func units(ms map[string]metricValue) map[string]string {
	out := make(map[string]string, len(ms))
	for k, v := range ms {
		out[k] = v.Unit
	}
	return out
}

func sameMap(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
