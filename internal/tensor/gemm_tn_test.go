package tensor

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// refGemmTN is GemmTN's per-element reference: one accumulator per C
// element of rows [i0, i1), starting from its C value and adding
// A[r][i]·B[r][j] for the rows r in order, skipping zero scales.
func refGemmTN(c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	for i := i0; i < i1; i++ {
		for j := 0; j < n; j++ {
			acc := c[i*n+j]
			for p := 0; p < k; p++ {
				r := p
				if order != nil {
					r = order[p]
				}
				if av := a[r*m+i]; av != 0 {
					acc += av * b[r*n+j]
				}
			}
			c[i*n+j] = acc
		}
	}
}

// tnOrder returns a row order of kind 0 (nil: ascending), 1 (descending),
// 2 (a random permutation) or 3 (the LSTM's sample-ascending,
// timestep-descending order over k = steps x n rows stored timestep-major,
// with steps = 5 when it divides k).
func tnOrder(src *rng.Source, kind, k int) []int {
	switch kind {
	case 0:
		return nil
	case 2:
		return src.Perm(k)
	}
	order := make([]int, k)
	switch kind {
	case 1:
		for q := range order {
			order[q] = k - 1 - q
		}
	default:
		steps := 5
		if k%steps != 0 {
			steps = 1
		}
		n := k / steps
		q := 0
		for s := 0; s < n; s++ {
			for t := steps - 1; t >= 0; t-- {
				order[q] = t*n + s
				q++
			}
		}
	}
	return order
}

// tnGuard is the value planted around C to catch a kernel writing outside
// its operand.
const tnGuard = 12345.678

// checkGemmTN runs GemmTN over rows [i0, i1) at the current dispatch level
// on copies of c framed by guard elements, and compares the result with
// refGemmTN bit for bit (any two NaNs equal).
func checkGemmTN(t *testing.T, c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	t.Helper()
	want := append([]float64(nil), c...)
	refGemmTN(want, a, b, m, n, k, i0, i1, order)
	framed := make([]float64, len(c)+32)
	for i := range framed {
		framed[i] = tnGuard
	}
	got := framed[16 : 16+len(c) : 16+len(c)]
	copy(got, c)
	GemmTN(got, a, b, m, n, k, i0, i1, order)
	if i, ok := sameBits(got, want); !ok {
		t.Fatalf("%s m=%d n=%d k=%d rows [%d,%d) element %d: %g vs reference %g",
			levelNames[simd()], m, n, k, i0, i1, i, got[i], want[i])
	}
	for i, v := range framed {
		if (i < 16 || i >= 16+len(c)) && v != tnGuard {
			t.Fatalf("%s m=%d n=%d k=%d: wrote outside C (guard %d)", levelNames[simd()], m, n, k, i)
		}
	}
}

// TestGemmTNLevels runs GemmTN at every dispatch level against the
// reference: every row count from 1 to 9 (4-row groups plus tails of 1-3)
// against every column count from 1 to 33 (16-column strips plus tails of
// 1-15), row ranges that start off a 4-row boundary, the weight-gradient
// shapes of the paper's stacks, k past one call's step budget, all four
// row orders, and ±0, subnormal, ±Inf and NaN operands.
func TestGemmTNLevels(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		src := rng.New(61)
		for m := 1; m <= 9; m++ {
			for n := 1; n <= 33; n++ {
				k := 1 + src.Intn(9)
				a, b, c := make([]float64, k*m), make([]float64, k*n), make([]float64, m*n)
				fillSpecial(src, a, 4*k)
				fillSpecial(src, b, 4*k)
				fillSpecial(src, c, 16)
				order := tnOrder(src, (m+n)%4, k)
				checkGemmTN(t, c, a, b, m, n, k, 0, m, order)
				if m > 2 {
					checkGemmTN(t, c, a, b, m, n, k, 1, m-1, order)
				}
			}
		}
		for _, s := range []struct{ m, n, k, order int }{
			{128, 32, 160, 3},  // LSTM Wh
			{128, 170, 160, 3}, // LSTM Wx, reduced width
			{25, 20, 576, 0},   // Table-1 conv 1, 3 samples
			{25, 500, 173, 0},  // Table-1 conv 3, reduced k
			{8, 199, 32, 0},    // a dense head
			{5, 3, 9000, 2},    // k past gemmTNCallSteps
			{13, 17, 2100, 1},  // row groups split across calls
			{6, 40, 1, 0},      // k = 1
			{1, 1, 1, 0},       // one element
			{4, 16, 300, 2},    // exactly one tile
			{7, 1700, 10, 3},   // a full LSTM input row
		} {
			a, b, c := make([]float64, s.k*s.m), make([]float64, s.k*s.n), make([]float64, s.m*s.n)
			fillSpecial(src, a, 8*s.k*s.n)
			fillSpecial(src, b, 8*s.k*s.m)
			fillSpecial(src, c, 64)
			order := tnOrder(src, s.order, s.k)
			checkGemmTN(t, c, a, b, s.m, s.n, s.k, 0, s.m, order)
			checkGemmTN(t, c, a, b, s.m, s.n, s.k, s.m/3, s.m-s.m/4, order)
		}
	})
}

// TestGemmTNZeroScaleKeepsNegativeZero pins the exact zero skip: a ±0
// scale leaves its accumulator untouched, so a C element holding -0 stays
// -0 (adding the +0 product would make it +0) and a zero scale against an
// infinite B element adds no NaN (0·Inf), while a NaN scale is added.
func TestGemmTNZeroScaleKeepsNegativeZero(t *testing.T) {
	forEachLevel(t, func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		for _, s := range []struct{ m, n, k int }{{4, 16, 3}, {7, 21, 5}, {1, 3, 2}, {9, 33, 4}} {
			a, b, c := make([]float64, s.k*s.m), make([]float64, s.k*s.n), make([]float64, s.m*s.n)
			for i := range a {
				if i%2 == 1 {
					a[i] = negZero
				}
			}
			for i := range b {
				b[i] = 1.5 + float64(i%5)
			}
			b[len(b)-1] = math.Inf(1)
			for i := range c {
				c[i] = negZero
			}
			GemmTN(c, a, b, s.m, s.n, s.k, 0, s.m, nil)
			for i, v := range c {
				if math.Float64bits(v) != math.Float64bits(negZero) {
					t.Fatalf("%+v element %d: %g after zero scales, want -0", s, i, v)
				}
			}
			a[0] = math.NaN()
			GemmTN(c, a, b, s.m, s.n, s.k, 0, s.m, nil)
			for j := 0; j < s.n; j++ {
				if !math.IsNaN(c[j]) {
					t.Fatalf("%+v column %d: %g after a NaN scale, want NaN", s, j, c[j])
				}
			}
		}
	})
}

func TestGemmTNOrderPanics(t *testing.T) {
	for _, order := range [][]int{{0, 1}, {0, 1, 3}, {0, -1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("order %v: expected a panic", order)
				}
			}()
			GemmTN(make([]float64, 6), make([]float64, 6), make([]float64, 6), 2, 2, 3, 0, 2, order)
		}()
	}
}

// FuzzGemmTN is the differential harness of the weight-gradient kernel:
// random shapes, row ranges and row orders, with ±0, subnormals, ±Inf and
// NaN, at every dispatch level the host has, must equal refGemmTN bit for
// bit (any two NaNs equal) and write nothing outside C.
func FuzzGemmTN(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(0), uint8(0))
	f.Add(uint64(2), uint8(24), uint8(19), uint16(575), uint8(1))  // conv 1
	f.Add(uint64(3), uint8(127), uint8(31), uint16(159), uint8(3)) // LSTM Wh
	f.Add(uint64(4), uint8(6), uint8(44), uint16(29), uint8(6))
	f.Add(uint64(5), uint8(2), uint8(14), uint16(9000), uint8(2))

	f.Fuzz(func(t *testing.T, seed uint64, mm, nn uint8, kk uint16, kind uint8) {
		m := 1 + int(mm)%130
		n := 1 + int(nn)%64
		k := 1 + int(kk)%10000
		if m*n*k > 1<<22 {
			k = max(1, (1<<22)/(m*n))
		}
		src := rng.New(seed)
		poisonEvery := 1 << 30
		if kind&4 != 0 {
			poisonEvery = 4 * k
		}
		a, b, c := make([]float64, k*m), make([]float64, k*n), make([]float64, m*n)
		fillSpecial(src, a, poisonEvery)
		fillSpecial(src, b, poisonEvery)
		fillSpecial(src, c, 64)
		order := tnOrder(src, int(kind%4), k)
		i0 := src.Intn(m)
		i1 := i0 + src.Intn(m-i0+1)
		for _, l := range hostLevels() {
			withLevel(l, func() { checkGemmTN(t, c, a, b, m, n, k, i0, i1, order) })
		}
	})
}
