//go:build amd64

package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// The float64 kernels contract bit-identity between the assembly and the
// portable Go loops (the NOASM CI job runs every other test down the
// scalar path). These tests run each public kernel at the Go level and at
// each assembly level the host has, and compare the bits. Slices are sized exactly, so an assembly
// over-read shows up as a bounds panic on the Go side or as a wrong tail.

// asmShapes covers m = 1 and k = 1, row tails (m % 4), 8- and 4-wide
// panels with and without a scalar column tail (the Table-1 widths 25, 15
// and 4 among them), k crossing the gemmKC tile boundary and m crossing
// the gemmNTRowBlock boundary.
var asmShapes = []struct{ m, n, k int }{
	{1, 1, 1}, {1, 8, 1}, {4, 4, 1}, {5, 9, 3}, {7, 12, 17}, {8, 16, 64},
	{6, 25, 500}, {9, 15, 375}, {13, 4, 20}, {3, 128, 33}, {17, 25, 256},
	{4, 11, 257}, {2, 7, 600}, {131, 12, 40}, {262, 25, 300},
}

func TestGemmNTAsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(41)
	for _, s := range asmShapes {
		for _, special := range []bool{false, true} {
			a := make([]float64, s.m*s.k)
			b := make([]float64, s.n*s.k)
			c := make([]float64, s.m*s.n)
			fillRand(src, a)
			fillRand(src, b)
			fillRand(src, c)
			if special {
				fillSpecial(src, a, 4*s.k*s.n)
				fillSpecial(src, b, 4*s.k*s.m)
				fillSpecial(src, c, 8)
			}
			want := append([]float64(nil), c...)
			gemmNTGeneric(want, a, b, s.m, s.n, s.k)
			// The panel kernels directly, below gemmNTMinRows too.
			got := append([]float64(nil), c...)
			j := gemmNTPanels(got, a, b, s.m, s.n, s.k)
			gemmNTColumns(got, a, b, s.m, s.n, s.k, j)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("shape %+v special %v element %d: asm %g vs generic %g", s, special, i, got[i], want[i])
			}
			got = append(got[:0], c...)
			GemmNT(got, a, b, s.m, s.n, s.k)
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("shape %+v special %v: GemmNT element %d: %g vs generic %g", s, special, i, got[i], want[i])
			}
		}
	}
}

func TestGemmAsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(42)
	for _, s := range asmShapes {
		a := make([]float64, s.m*s.k)
		b := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		fillSpecial(src, a, 4*s.k*s.n)
		fillRand(src, b)
		fillSpecial(src, c, 8)
		want := append([]float64(nil), c...)
		withLevel(levelGo, func() { Gemm(want, a, b, s.m, s.n, s.k, s.n, s.k) })
		got := append([]float64(nil), c...)
		Gemm(got, a, b, s.m, s.n, s.k, s.n, s.k)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("shape %+v element %d: asm %g vs generic %g", s, i, got[i], want[i])
		}
	}
}

// TestGemmTNRangeAsmMatchesGeneric runs GemmTN over a row range at each
// assembly level the host has (the AVX2 axpy passes and the AVX-512 tiles)
// against the Go loops, with ascending and permuted row orders.
func TestGemmTNRangeAsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(43)
	for _, s := range asmShapes {
		a := make([]float64, s.k*s.m)
		b := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		fillSpecial(src, a, 4*s.k*s.n)
		fillSpecial(src, b, 4*s.k*s.m)
		fillSpecial(src, c, 8)
		i0, i1 := s.m/3, s.m-s.m/4
		for _, order := range [][]int{nil, src.Perm(s.k)} {
			want := append([]float64(nil), c...)
			withLevel(levelGo, func() { GemmTN(want, a, b, s.m, s.n, s.k, i0, i1, order) })
			for l := levelAVX2; l <= simd(); l++ {
				got := append([]float64(nil), c...)
				withLevel(l, func() { GemmTN(got, a, b, s.m, s.n, s.k, i0, i1, order) })
				if i, ok := sameBits(got, want); !ok {
					t.Fatalf("%s shape %+v rows [%d,%d) element %d: asm %g vs generic %g",
						levelNames[l], s, i0, i1, i, got[i], want[i])
				}
			}
		}
	}
}

func TestAxpyAsmMatchesGeneric(t *testing.T) {
	if simd() < levelAVX2 {
		t.Skip("no AVX2 (or SPECML_NOASM set)")
	}
	src := rng.New(44)
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 20, 31, 32, 33, 375, 500, 1700} {
		y := make([]float64, n)
		x := make([][]float64, 4)
		for i := range x {
			x[i] = make([]float64, n)
			fillSpecial(src, x[i], 64)
		}
		fillSpecial(src, y, 64)
		sc := [4]float64{src.Uniform(-2, 2), math.Copysign(0, -1), 3e-310, math.Inf(1)}

		want := append([]float64(nil), y...)
		axpyGeneric(want, sc[0], x[0])
		got := append([]float64(nil), y...)
		axpyAVX2(got, x[0], sc[0])
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("axpy n=%d element %d: asm %g vs generic %g", n, i, got[i], want[i])
		}
		for _, a := range sc {
			want = append(want[:0], y...)
			got = append(got[:0], y...)
			axpyGeneric(want, a, x[1])
			axpy(got, a, x[1])
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("axpy n=%d a=%g element %d: asm %g vs generic %g", n, a, i, got[i], want[i])
			}
		}

		want = append(want[:0], y...)
		axpy4Generic(want, sc[0], x[0], sc[1], x[1], sc[2], x[2], sc[3], x[3])
		got = append(got[:0], y...)
		axpy4(got, sc[0], x[0], sc[1], x[1], sc[2], x[2], sc[3], x[3])
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("axpy4 n=%d element %d: asm %g vs generic %g", n, i, got[i], want[i])
		}
	}
}
