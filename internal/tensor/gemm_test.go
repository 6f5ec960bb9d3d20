package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// refGemm is the per-element reference all three GEMM variants must match
// bit for bit: one scalar accumulator per C element, starting from the
// incoming C value, adding products in ascending k order.
func refGemm(c, a, b []float64, m, n, k int, transA, transB bool) {
	at := func(i, p int) float64 {
		if transA {
			return a[p*m+i]
		}
		return a[i*k+p]
	}
	bt := func(p, j int) float64 {
		if transB {
			return b[j*k+p]
		}
		return b[p*n+j]
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				acc += at(i, p) * bt(p, j)
			}
			c[i*n+j] = acc
		}
	}
}

// fillRand fills s from src with ~20% exact zeros, the sparsity of a ReLU
// gradient.
func fillRand(src *rng.Source, s []float64) {
	for i := range s {
		if src.Float64() < 0.2 {
			s[i] = 0
		} else {
			s[i] = src.Uniform(-2, 2)
		}
	}
}

func bitsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs bitwise: %g vs %g", name, i, got[i], want[i])
		}
	}
}

var gemmShapes = []struct{ m, n, k int }{
	{1, 1, 1}, {1, 7, 3}, {3, 1, 5}, {4, 4, 4},
	{7, 5, 9}, {32, 8, 199}, {13, 21, 300}, // k > gemmKC exercises k-tiling
	{5, 17, 257},
}

func TestGemmMatchesOrderedReference(t *testing.T) {
	src := rng.New(11)
	for _, s := range gemmShapes {
		a := make([]float64, s.m*s.k)
		b := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		fillRand(src, a)
		fillRand(src, b)
		fillRand(src, c)
		want := append([]float64(nil), c...)
		refGemm(want, a, b, s.m, s.n, s.k, false, false)
		Gemm(c, a, b, s.m, s.n, s.k)
		bitsEqual(t, "Gemm", c, want)
	}
}

func TestGemmNTMatchesOrderedReference(t *testing.T) {
	src := rng.New(12)
	for _, s := range gemmShapes {
		a := make([]float64, s.m*s.k)
		b := make([]float64, s.n*s.k)
		c := make([]float64, s.m*s.n)
		fillRand(src, a)
		fillRand(src, b)
		fillRand(src, c) // non-zero C checks the bias-prefill contract
		want := append([]float64(nil), c...)
		refGemm(want, a, b, s.m, s.n, s.k, false, true)
		GemmNT(c, a, b, s.m, s.n, s.k)
		bitsEqual(t, "GemmNT", c, want)
	}
}

func TestGemmTNMatchesOrderedReference(t *testing.T) {
	src := rng.New(13)
	for _, s := range gemmShapes {
		a := make([]float64, s.k*s.m)
		b := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		fillRand(src, a)
		fillRand(src, b)
		fillRand(src, c)
		want := append([]float64(nil), c...)
		refGemm(want, a, b, s.m, s.n, s.k, true, false)
		GemmTN(c, a, b, s.m, s.n, s.k, 0, s.m, nil)
		bitsEqual(t, "GemmTN", c, want)
	}
}

// TestGemmTNRangesCompose pins the sharding contract of GemmTN's row
// range: any split of C's rows into ranges, each computed by its own call,
// reproduces one call over every row bit for bit.
func TestGemmTNRangesCompose(t *testing.T) {
	src := rng.New(15)
	for _, s := range gemmShapes {
		a := make([]float64, s.k*s.m)
		b := make([]float64, s.k*s.n)
		c := make([]float64, s.m*s.n)
		fillRand(src, a)
		fillRand(src, b)
		fillRand(src, c)
		want := append([]float64(nil), c...)
		GemmTN(want, a, b, s.m, s.n, s.k, 0, s.m, nil)
		for _, parts := range []int{1, 2, 3, 7} {
			got := append([]float64(nil), c...)
			for i := 0; i < parts; i++ {
				GemmTN(got, a, b, s.m, s.n, s.k, i*s.m/parts, (i+1)*s.m/parts, nil)
			}
			bitsEqual(t, "GemmTN rows", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on a row range outside C")
		}
	}()
	GemmTN(make([]float64, 4), make([]float64, 4), make([]float64, 4), 2, 2, 2, 1, 3, nil)
}

func TestGemmZeroDims(t *testing.T) {
	// Degenerate shapes must be no-ops, not panics.
	Gemm(nil, nil, nil, 0, 0, 0)
	GemmNT(nil, nil, nil, 0, 3, 0)
	GemmTN(nil, nil, nil, 2, 0, 0, 0, 2, nil)
}

func TestGemmDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic on mismatched dims")
		}
	}()
	Gemm(make([]float64, 4), make([]float64, 3), make([]float64, 4), 2, 2, 2)
}

func TestIm2ColWindows(t *testing.T) {
	// inLen=6, inCh=2, kernel=3, stride=2 -> outLen=2; windows overlap-free.
	inLen, inCh, kernel, stride := 6, 2, 3, 2
	outLen := (inLen-kernel)/stride + 1
	x := make([]float64, inLen*inCh)
	for i := range x {
		x[i] = float64(i + 1)
	}
	dst := make([]float64, outLen*kernel*inCh)
	Im2Col(dst, x, inLen, inCh, kernel, stride, outLen)
	for p := 0; p < outLen; p++ {
		for i := 0; i < kernel*inCh; i++ {
			want := x[p*stride*inCh+i]
			if got := dst[p*kernel*inCh+i]; got != want {
				t.Fatalf("window %d element %d: got %g want %g", p, i, got, want)
			}
		}
	}
}

func TestIm2ColGemmEqualsDirectConv(t *testing.T) {
	// The documented lowering: conv(x, w) == GemmNT(im2col(x), w), bitwise,
	// for overlapping windows too.
	src := rng.New(15)
	inLen, inCh, kernel, stride, filters := 25, 1, 5, 2, 4
	outLen := (inLen-kernel)/stride + 1
	fanIn := kernel * inCh
	x := make([]float64, inLen*inCh)
	w := make([]float64, filters*fanIn)
	bias := make([]float64, filters)
	fillRand(src, x)
	fillRand(src, w)
	fillRand(src, bias)

	direct := make([]float64, outLen*filters)
	for p := 0; p < outLen; p++ {
		win := x[p*stride*inCh : p*stride*inCh+fanIn]
		for f := 0; f < filters; f++ {
			acc := bias[f]
			for i, v := range win {
				acc += w[f*fanIn+i] * v
			}
			direct[p*filters+f] = acc
		}
	}

	cols := make([]float64, outLen*fanIn)
	Im2Col(cols, x, inLen, inCh, kernel, stride, outLen)
	lowered := make([]float64, outLen*filters)
	for p := 0; p < outLen; p++ {
		copy(lowered[p*filters:(p+1)*filters], bias)
	}
	GemmNT(lowered, cols, w, outLen, filters, fanIn)
	bitsEqual(t, "im2col+GemmNT", lowered, direct)
}

func TestCol2ImAdjoint(t *testing.T) {
	// <u, Im2Col(x)> == <Col2Im(u), x> characterizes the adjoint.
	src := rng.New(16)
	inLen, inCh, kernel, stride := 19, 3, 4, 2
	outLen := (inLen-kernel)/stride + 1
	fanIn := kernel * inCh
	x := make([]float64, inLen*inCh)
	u := make([]float64, outLen*fanIn)
	fillRand(src, x)
	fillRand(src, u)

	cols := make([]float64, outLen*fanIn)
	Im2Col(cols, x, inLen, inCh, kernel, stride, outLen)
	lhs := dot(u, cols)

	back := make([]float64, inLen*inCh)
	Col2Im(back, u, inLen, inCh, kernel, stride, outLen)
	rhs := dot(back, x)

	if math.Abs(lhs-rhs) > 1e-12*(1+math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %g vs %g", lhs, rhs)
	}
}

func TestCol2ImAccumulates(t *testing.T) {
	inLen, inCh, kernel, stride := 4, 1, 2, 1
	outLen := 3
	cols := []float64{1, 2, 10, 20, 100, 200}
	dst := []float64{1, 1, 1, 1} // not cleared: Col2Im adds
	Col2Im(dst, cols, inLen, inCh, kernel, stride, outLen)
	want := []float64{2, 13, 121, 201}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst[%d] = %g, want %g", i, dst[i], want[i])
		}
	}
}
