package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// fillSpecial fills s like fillRand, then plants ±0 and subnormals at
// about one element in eight and ±Inf or NaN at about one in poisonEvery
// (rare enough that most sums stay finite).
func fillSpecial(src *rng.Source, s []float64, poisonEvery int) {
	fillRand(src, s)
	quiet := []float64{math.Copysign(0, -1), 0, 5e-324, -2.5e-310, math.SmallestNonzeroFloat64 * 3}
	poison := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	for i := range s {
		switch {
		case src.Intn(poisonEvery) == 0:
			s[i] = poison[src.Intn(len(poison))]
		case src.Intn(8) == 0:
			s[i] = quiet[src.Intn(len(quiet))]
		}
	}
}

// sameBits reports whether two float64 slices agree bit for bit, counting
// any two NaNs as equal.
func sameBits(got, want []float64) (int, bool) {
	for i := range got {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i, false
		}
	}
	return -1, true
}

// FuzzGemmFloat is the differential harness of the float64 kernels: on
// random shapes and values (exact zeros, ±0, ±Inf, NaN and subnormals)
// every public GEMM kernel and both axpy primitives, at every dispatch
// level the host has, must equal the per-element ascending-k reference
// bit for bit, any two NaNs counting as equal. Gemm also runs with C and A
// rows strided past n and k, and must leave the gaps between C's rows
// untouched. Every dense slice is sized exactly, so a kernel that reads or
// writes past an operand trips a bounds check.
func FuzzGemmFloat(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(0))    // m = n = k = 1
	f.Add(uint64(2), uint8(4), uint8(24), uint16(499), uint8(3)) // a Table-1 conv row block
	f.Add(uint64(3), uint8(8), uint8(14), uint16(374), uint8(1))
	f.Add(uint64(4), uint8(0), uint8(7), uint16(299), uint8(2)) // m = 1, k > gemmKC
	f.Add(uint64(5), uint8(11), uint8(3), uint16(17), uint8(0))

	f.Fuzz(func(t *testing.T, seed uint64, mm, nn uint8, kk uint16, poison uint8) {
		m := 1 + int(mm)%12
		n := 1 + int(nn)%40
		k := 1 + int(kk)%600
		src := rng.New(seed)
		// poison selects how often ±Inf/NaN appear: never, or about once
		// per few dot products; ±0 and subnormals appear throughout.
		poisonEvery := 1 << 30
		if p := int(poison % 4); p != 0 {
			poisonEvery = 2 * p * k
		}
		fill := func(s []float64) { fillSpecial(src, s, poisonEvery) }
		check := func(name string, got, want []float64) {
			t.Helper()
			if i, ok := sameBits(got, want); !ok {
				t.Fatalf("%s %s m=%d n=%d k=%d element %d: %g vs reference %g", levelNames[simd()], name, m, n, k, i, got[i], want[i])
			}
		}
		run := func(name string, transA, transB bool, kernel func(c, a, b []float64)) {
			a := make([]float64, m*k)
			b := make([]float64, k*n)
			c := make([]float64, m*n)
			fill(a)
			fill(b)
			fill(c)
			want := append([]float64(nil), c...)
			refGemm(want, a, b, m, n, k, transA, transB)
			kernel(c, a, b)
			check(name, c, want)
		}
		ldc, lda := n+int(seed%37), k+int(seed/37%5)
		for _, l := range hostLevels() {
			withLevel(l, func() {
				run("Gemm", false, false, func(c, a, b []float64) { Gemm(c, a, b, m, n, k, n, k) })
				run("GemmNT", false, true, func(c, a, b []float64) { GemmNT(c, a, b, m, n, k) })
				run("GemmTN", true, false, func(c, a, b []float64) { GemmTN(c, a, b, m, n, k, 0, m, nil) })
				split := m / 2
				run("GemmTN rows", true, false, func(c, a, b []float64) {
					GemmTN(c, a, b, m, n, k, 0, split, nil)
					GemmTN(c, a, b, m, n, k, split, m, nil)
				})
				checkGemm(t, src, m, n, k, ldc, lda)
			})
		}

		// The axpy primitives over k elements against their scalar loops.
		y := make([]float64, k)
		xs := make([][]float64, 4)
		for i := range xs {
			xs[i] = make([]float64, k)
			fill(xs[i])
		}
		fill(y)
		sc := make([]float64, 4)
		fill(sc)
		want := append([]float64(nil), y...)
		for i := range want {
			want[i] = want[i] + sc[0]*xs[0][i] + sc[1]*xs[1][i] + sc[2]*xs[2][i] + sc[3]*xs[3][i]
		}
		got := append([]float64(nil), y...)
		axpy4(got, sc[0], xs[0], sc[1], xs[1], sc[2], xs[2], sc[3], xs[3])
		check("axpy4", got, want)
		want = append(want[:0], y...)
		for i := range want {
			want[i] += sc[0] * xs[0][i]
		}
		got = append(got[:0], y...)
		axpy(got, sc[0], xs[0])
		check("axpy", got, want)
	})
}
