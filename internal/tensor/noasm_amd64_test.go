//go:build amd64

package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// The int8 path contracts bit-identity between the AVX2 kernels and the
// scalar fallbacks (the NOASM CI job runs the same tests down the scalar
// path). These tests pin the two implementations against each other
// directly on an AVX2 host.

func TestGemmInt8AsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(31)
	for _, s := range []struct{ m, n, k int }{
		{1, 1, 16}, {2, 3, 16}, {5, 4, 32}, {7, 9, 48}, {3, 21, 160}, {32, 8, 512},
	} {
		a := make([]int8, s.m*s.k)
		b := make([]int8, s.n*s.k)
		fillCodes(src, a)
		fillCodes(src, b)
		got := make([]int32, s.m*s.n)
		want := make([]int32, s.m*s.n)
		for i := range got {
			got[i] = int32(src.Intn(9) - 4)
			want[i] = got[i]
		}
		gemmInt8NTAVX2(got, a, b, s.m, s.n, s.k)
		gemmInt8NTGeneric(want, a, b, s.m, s.n, s.k)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("shape %+v element %d: asm %d vs generic %d", s, i, got[i], want[i])
			}
		}
	}
}

func TestQuantizeInt8AsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(32)
	for trial := 0; trial < 20; trial++ {
		n := 4 * (1 + src.Intn(64))
		x := make([]float64, n)
		for i := range x {
			switch src.Intn(10) {
			case 0:
				x[i] = 0
			case 1:
				x[i] = math.NaN()
			case 2:
				x[i] = src.Uniform(-1000, 1000) // forces both clamp sides
			default:
				x[i] = src.Uniform(-130, 130)
			}
		}
		inv := src.Uniform(0.1, 2)
		got := make([]int8, n)
		want := make([]int8, n)
		quantizeInt8AVX2(got, x, inv)
		quantizeInt8Generic(want, x, inv)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d element %d (x=%g inv=%g): asm %d vs generic %d",
					trial, i, x[i], inv, got[i], want[i])
			}
		}
	}
}

func TestMaxAbsAsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(33)
	for trial := 0; trial < 20; trial++ {
		n := 4 * (1 + src.Intn(64))
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Uniform(-50, 50)
		}
		got := maxAbsAVX2(x)
		want := maxAbsGeneric(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: asm %g vs generic %g", trial, got, want)
		}
	}
}
