package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"specml/internal/rng"
)

func TestMatVec(t *testing.T) {
	// W = [[1,2],[3,4],[5,6]], x = [1,1] -> [3,7,11]
	w := []float64{1, 2, 3, 4, 5, 6}
	out := make([]float64, 3)
	MatVec(out, w, []float64{1, 1}, 3, 2)
	want := []float64{3, 7, 11}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("MatVec = %v, want %v", out, want)
		}
	}
}

func TestMatTVec(t *testing.T) {
	// Wᵀ*y with W = [[1,2],[3,4],[5,6]], y = [1,0,1] -> [6,8]
	w := []float64{1, 2, 3, 4, 5, 6}
	out := make([]float64, 2)
	MatTVec(out, w, []float64{1, 0, 1}, 3, 2)
	if out[0] != 6 || out[1] != 8 {
		t.Fatalf("MatTVec = %v, want [6 8]", out)
	}
}

func TestOuterAccum(t *testing.T) {
	grad := make([]float64, 6)
	OuterAccum(grad, []float64{1, 2, 3}, []float64{4, 5}, 3, 2)
	want := []float64{4, 5, 8, 10, 12, 15}
	for i := range want {
		if grad[i] != want[i] {
			t.Fatalf("OuterAccum = %v, want %v", grad, want)
		}
	}
}

// Property: MatVec equals GemmNT with one A row (out = x·Wᵀ) bit for
// bit: both add each row's products in ascending column order into an
// accumulator starting from zero.
func TestMatVecMatchesGemmNTProperty(t *testing.T) {
	src := rng.New(99)
	f := func(rRaw, cRaw uint8) bool {
		rows := int(rRaw%6) + 1
		cols := int(cRaw%6) + 1
		w := make([]float64, rows*cols)
		x := make([]float64, cols)
		for i := range w {
			w[i] = src.Normal(0, 1)
		}
		for i := range x {
			x[i] = src.Normal(0, 1)
		}
		out := make([]float64, rows)
		MatVec(out, w, x, rows, cols)
		ref := make([]float64, rows)
		GemmNT(ref, x, w, 1, rows, cols)
		_, ok := sameBits(out, ref)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: (Wᵀy)·x == y·(Wx) — adjoint identity used implicitly by backprop.
func TestAdjointIdentityProperty(t *testing.T) {
	src := rng.New(123)
	f := func(rRaw, cRaw uint8) bool {
		rows := int(rRaw%8) + 1
		cols := int(cRaw%8) + 1
		w := make([]float64, rows*cols)
		x := make([]float64, cols)
		y := make([]float64, rows)
		for i := range w {
			w[i] = src.Normal(0, 1)
		}
		for i := range x {
			x[i] = src.Normal(0, 1)
		}
		for i := range y {
			y[i] = src.Normal(0, 1)
		}
		wx := make([]float64, rows)
		MatVec(wx, w, x, rows, cols)
		wty := make([]float64, cols)
		MatTVec(wty, w, y, rows, cols)
		return math.Abs(dot(wty, x)-dot(y, wx)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// dot is the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

func BenchmarkMatVec256(b *testing.B) {
	const rows, cols = 256, 256
	w := make([]float64, rows*cols)
	x := make([]float64, cols)
	out := make([]float64, rows)
	src := rng.New(1)
	for i := range w {
		w[i] = src.Normal(0, 1)
	}
	for i := range x {
		x[i] = src.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(out, w, x, rows, cols)
	}
}
