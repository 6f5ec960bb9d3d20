package main

import "testing"

// pairsOf pairs base[i] with head[i].
func pairsOf(base, head []float64) [][2]float64 {
	p := make([][2]float64, len(base))
	for i := range base {
		p[i] = [2]float64{base[i], head[i]}
	}
	return p
}

func TestJudgeVerdicts(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{100, 130, 80, 110, 90, 125, 75, 105, 95, 120}
	shift := func(xs []float64, d float64, except map[int]float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
			if v, ok := except[i]; ok {
				out[i] = v
			}
		}
		return out
	}
	for _, c := range []struct {
		name        string
		base, head  []float64
		lowerBetter bool
		bound       float64
		want        string
		wins        int
	}{
		{"9 of 10 wins is a gain", steady, shift(steady, -5, map[int]float64{0: 150}), true, 0.1, "gain", 9},
		{"8 of 10 wins is not", steady, shift(steady, -5, map[int]float64{0: 150, 1: 150}), true, 0.1, "ok", 8},
		{"ties win for neither side", steady, shift(steady, -5, map[int]float64{0: 100, 1: 101}), true, 0.1, "ok", 8},
		{"9 wins and a tie is a gain", steady, shift(steady, -5, map[int]float64{0: 100}), true, 0.1, "gain", 9},
		{"a win inside the base spread is no gain", steady, shift(steady, -1, nil), true, 0.1, "ok", 10},
		{"higher is better", steady, shift(steady, 5, nil), false, 0.1, "gain", 10},
		{"regression beyond the bound", steady, shift(steady, 15, nil), true, 0.1, "regression", 0},
		{"regression of a higher-better metric", steady, shift(steady, -15, nil), false, 0.1, "regression", 0},
		{"noisy base is unresolved", noisy, shift(noisy, -2, nil), true, 0.1, "unresolved", 10},
		{"noisy base, every head run better", noisy, shift(noisy, -60, map[int]float64{1: 70, 5: 70, 9: 70}), true, 0.1, "gain", 10},
	} {
		v := judge(c.base, c.head, pairsOf(c.base, c.head), c.lowerBetter, c.bound)
		if v.call != c.want || v.wins != c.wins || v.pairs != len(c.base) {
			t.Errorf("%s: %s with %d/%d wins, want %s with %d", c.name, v.call, v.wins, v.pairs, c.want, c.wins)
		}
	}
}
