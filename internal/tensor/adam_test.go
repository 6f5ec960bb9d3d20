package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// TestAdamStepLevels runs AdamStep at every dispatch level against the Go
// loop, bit for bit (any two NaNs equal), over lengths with and without a
// tail of 1-3 elements and three consecutive steps, with gradients that
// include ±0, subnormals, huge values, ±Inf and NaN.
func TestAdamStepLevels(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		src := rng.New(71)
		special := []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e300, -1e300,
			math.Inf(1), math.Inf(-1), math.NaN()}
		for _, n := range []int{0, 1, 3, 4, 5, 8, 11, 16, 37, 1000} {
			w := make([]float64, n)
			fillRand(src, w)
			m, v := make([]float64, n), make([]float64, n)
			wantW, wantM, wantV := append([]float64(nil), w...), make([]float64, n), make([]float64, n)
			g := make([]float64, n)
			for step := 1; step <= 3; step++ {
				fillRand(src, g)
				for i := range g {
					if src.Intn(3) == 0 {
						g[i] = special[src.Intn(len(special))]
					}
				}
				c1 := 1 - math.Pow(0.9, float64(step))
				c2 := 1 - math.Pow(0.999, float64(step))
				adamGeneric(wantW, g, wantM, wantV, 1e-3, 0.9, 0.999, 1e-8, c1, c2)
				AdamStep(w, g, m, v, 1e-3, 0.9, 0.999, 1e-8, c1, c2)
				for name, p := range map[string][2][]float64{"w": {w, wantW}, "m": {m, wantM}, "v": {v, wantV}} {
					if i, ok := sameBits(p[0], p[1]); !ok {
						t.Fatalf("n=%d step %d %s[%d] (g=%g): %g vs Go loop %g", n, step, name, i, g[i], p[0][i], p[1][i])
					}
				}
			}
		}
	})
}

func TestAdamStepLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic on mismatched lengths")
		}
	}()
	AdamStep(make([]float64, 4), make([]float64, 3), make([]float64, 4), make([]float64, 4), 1, 0.9, 0.999, 1e-8, 1, 1)
}

// BenchmarkAdamStep is one Adam update of the Table-2 monitor's 221,956
// parameters, once per dispatch level.
func BenchmarkAdamStep(b *testing.B) {
	const n = 221956
	src := rng.New(72)
	w, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	fillRand(src, w)
	fillRand(src, g)
	for _, l := range hostLevels() {
		withLevel(l, func() {
			b.Run(levelNames[l], func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					AdamStep(w, g, m, v, 1e-3, 0.9, 0.999, 1e-8, 0.5, 0.01)
				}
			})
		})
	}
}
