package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// checkGemm runs Gemm at the current dispatch level with C rows ldc apart
// and A rows lda apart, and compares every C row with refGemm over dense
// copies bit for bit (any two NaNs equal). The elements around and
// between C's rows hold guard values that must survive; those between A's
// rows are NaN, so a kernel that reads them turns its result NaN.
func checkGemm(t *testing.T, src *rng.Source, m, n, k, ldc, lda int) {
	t.Helper()
	a, b, c := make([]float64, m*k), make([]float64, k*n), make([]float64, m*n)
	fillSpecial(src, a, 8*k*n)
	fillSpecial(src, b, 8*k*m)
	fillSpecial(src, c, 64)
	want := append([]float64(nil), c...)
	refGemm(want, a, b, m, n, k, false, false)

	sa := make([]float64, (m-1)*lda+k)
	for i := range sa {
		sa[i] = math.NaN()
	}
	framed := make([]float64, (m-1)*ldc+n+32)
	for i := range framed {
		framed[i] = tnGuard
	}
	inRow := make([]bool, len(framed))
	for i := 0; i < m; i++ {
		copy(sa[i*lda:], a[i*k:(i+1)*k])
		copy(framed[16+i*ldc:], c[i*n:(i+1)*n])
		for j := 0; j < n; j++ {
			inRow[16+i*ldc+j] = true
		}
	}
	Gemm(framed[16:len(framed)-16], sa, b, m, n, k, ldc, lda)
	for i := 0; i < m; i++ {
		if j, ok := sameBits(framed[16+i*ldc:][:n], want[i*n:(i+1)*n]); !ok {
			t.Fatalf("%s m=%d n=%d k=%d ldc=%d lda=%d C[%d][%d]: %g vs reference %g",
				levelNames[simd()], m, n, k, ldc, lda, i, j, framed[16+i*ldc+j], want[i*n+j])
		}
	}
	for i, v := range framed {
		if !inRow[i] && v != tnGuard {
			t.Fatalf("%s m=%d n=%d k=%d ldc=%d lda=%d: wrote outside C's rows (element %d)",
				levelNames[simd()], m, n, k, ldc, lda, i-16)
		}
	}
}

// checkGemmNT runs GemmNT at the current dispatch level on a copy of c
// framed by guard elements and compares it with refGemm bit for bit.
func checkGemmNT(t *testing.T, src *rng.Source, m, n, k int) {
	t.Helper()
	a, b, c := make([]float64, m*k), make([]float64, n*k), make([]float64, m*n)
	fillSpecial(src, a, 8*k*n)
	fillSpecial(src, b, 8*k*m)
	fillSpecial(src, c, 64)
	want := append([]float64(nil), c...)
	refGemm(want, a, b, m, n, k, false, true)
	framed := make([]float64, len(c)+32)
	for i := range framed {
		framed[i] = tnGuard
	}
	got := framed[16 : 16+len(c) : 16+len(c)]
	copy(got, c)
	GemmNT(got, a, b, m, n, k)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s m=%d n=%d k=%d element %d: %g vs reference %g", levelNames[simd()], m, n, k, i, got[i], want[i])
	}
	for i, v := range framed {
		if (i < 16 || i >= 16+len(c)) && v != tnGuard {
			t.Fatalf("%s m=%d n=%d k=%d: wrote outside C (guard %d)", levelNames[simd()], m, n, k, i)
		}
	}
}

// TestGemmLevels runs Gemm at every dispatch level against the reference:
// every row count from 1 to 9 (4-row groups plus tails of 1-3) against
// every column count from 1 to 33 (one to four ZMM groups of a strip, and
// a second strip), dense and with leading dimensions past n and k, k past
// one chunk, and the input-gradient shapes of the paper's stacks.
func TestGemmLevels(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		src := rng.New(71)
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 33; n++ {
				k := 1 + src.Intn(9)
				checkGemm(t, src, m, n, k, n, k)
				checkGemm(t, src, m, n, k, n+1+src.Intn(40), k+src.Intn(5))
			}
		}
		for _, s := range []struct{ m, n, k, ldc, lda int }{
			{32, 500, 25, 4500, 1350},  // Table-1 conv 3 input gradient, one position
			{17, 375, 25, 1350, 500},   // conv 5, a shard of 17 samples
			{33, 375, 15, 500, 30},     // conv 7 (stride 4 < kernel 15)
			{32, 199, 32, 199, 32},     // a dense head
			{32, 1700, 128, 1700, 128}, // LSTM input gradient
			{32, 32, 128, 32, 128},     // LSTM recurrent gradient
			{5, 40, 300, 41, 303},      // k past one chunk
			{131, 9, 260, 9, 260},      // rows past one call, k past gemmKC
		} {
			checkGemm(t, src, s.m, s.n, s.k, s.ldc, s.lda)
		}
	})
}

// TestGemmNTLevels runs GemmNT at every dispatch level against the
// reference: every row count from 1 to 9 (the scalar and panel paths) and
// from 32 to 35 (the AVX-512 tile, gemmNTTileMinRows, with row tails of
// 0-3) against every column count from 1 to 33, k past one panel chunk at
// each strip width, and the forward shapes of the paper's stacks, rows
// past one row block included.
func TestGemmNTLevels(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		src := rng.New(72)
		for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 33, 34, 35} {
			for n := 1; n <= 33; n++ {
				checkGemmNT(t, src, m, n, 1+src.Intn(9))
			}
		}
		for _, s := range []struct{ m, n, k int }{
			{300, 25, 20},  // Table-1 conv 1 (reduced m)
			{262, 25, 500}, // conv 3, row blocks of 128 plus a tail
			{640, 25, 375}, // conv 5
			{64, 15, 375},  // conv 7
			{33, 128, 300}, // LSTM input projection (reduced k)
			{32, 128, 32},  // LSTM recurrent
			{32, 32, 199},  // a dense layer
			{37, 8, 600},   // one ZMM group, k past every chunk
			{41, 17, 257},  // three groups, k past gemmKC
			{45, 33, 70},   // a second strip of one column
			{32, 4, 1},     // k = 1
		} {
			checkGemmNT(t, src, s.m, s.n, s.k)
		}
	})
}
