package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile has to sort
	}
	return xs
}

func TestPercentileNearestRankWithCounts(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
	}{
		{10, 50, 5, 5},
		{10, 95, 10, 0},
		{10, 90, 9, 1},
		{10, 1, 1, 9},
		{10, 100, 10, 0},
		{1000, 99, 990, 10}, // the highest percentile with ten samples beyond it
		{1000, 99.9, 999, 1},
		{1, 50, 1, 0},
	} {
		got, beyond := percentile(seq(c.n), c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("n=%d p%g = %g (%d beyond), want %g (%d beyond)", c.n, c.p, got, beyond, c.want, c.beyond)
		}
	}
	if v, beyond := percentile(nil, 50); !math.IsNaN(v) || beyond != 0 {
		t.Errorf("empty sample: %g, %d", v, beyond)
	}
}

func TestHistTotalsGroupsSeriesByLabel(t *testing.T) {
	const expo = `# TYPE specserve_stage_seconds histogram
specserve_stage_seconds_bucket{codec="binary",stage="decode",le="0.001"} 3
specserve_stage_seconds_sum{codec="binary",stage="decode"} 0.5
specserve_stage_seconds_count{codec="binary",stage="decode"} 4
specserve_stage_seconds_sum{codec="json",stage="decode"} 1.5
specserve_stage_seconds_count{codec="json",stage="decode"} 2
specserve_stage_seconds_sum{stage="forward"} 2
specserve_stage_seconds_count{stage="forward"} 8
specserve_stage_seconds_total_sum{stage="forward"} 99
specserve_batch_size_sum 12
specserve_batch_size_count 3
`
	got := histTotals(expo, "specserve_stage_seconds", "stage")
	want := map[string][2]float64{"decode": {6, 2}, "forward": {8, 2}}
	if len(got) != len(want) || got["decode"] != want["decode"] || got["forward"] != want["forward"] {
		t.Errorf("by stage: %v, want %v", got, want)
	}
	if all := histTotals(expo, "specserve_batch_size", ""); all[""] != [2]float64{3, 12} {
		t.Errorf("batch size: %v, want count 3 sum 12", all)
	}
	if ms := histMeanMS(expo, "specserve_batch_size"); ms != 4000 {
		t.Errorf("mean %v ms, want 4000", ms)
	}
}

// The expected values are Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		data []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 1, 3, 2}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{2.5, 7, 1.5, 9, 4.25}, [3]float64{2, 4.25, 8}},
	} {
		q1, med, q3 := quartiles(c.data)
		if got := [3]float64{q1, med, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.data, got, c.want)
		}
	}
}
