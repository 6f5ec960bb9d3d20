package tensor

import "fmt"

// Blocked GEMM kernels for the batched neural-network path. All three
// variants accumulate into C (C += ...) and preserve a strict per-element
// contract: every C element is produced by a single scalar accumulator that
// starts from the current C value and adds its k products in ascending k
// order. That contract is what makes the batched im2col+GEMM forward and
// backward passes bit-identical to the per-sample loops in internal/nn —
// tiling and register blocking only reorder *which* elements are computed
// when, never the addition sequence within one element.
//
// The kernels are written for the shapes the nn hot paths produce: A is a
// large activation (or im2col) block streamed row by row, B is a parameter
// matrix small enough to stay cache-resident across A's rows.
//
// Dispatch. On amd64 hosts with AVX2 (and SPECML_NOASM unset) GemmNT and
// the two axpy primitives every other kernel is built from (Axpy4,
// AxpySkipZero) run assembly that vectorizes across output elements: one
// SIMD lane per C element, each adding its products with a separate
// VMULPD and VADDPD, in the scalar loop's order. Those are the two
// roundings of the Go statement `acc += a * b` (the amd64 Go compiler
// never fuses them), so the lanes match the scalar kernels bit for bit.
// The assembly never uses FMA, whose single rounding would not. The
// portable Go kernels in gemm_generic.go are the only path elsewhere and
// the oracle the assembly is tested against.

// gemmKC is the k-tile size of Gemm and of GemmNT's packed B panels: one B
// tile of gemmKC rows is reused across a whole stripe of A rows before the
// next tile is touched, keeping the streamed B traffic inside L1/L2 for
// large k.
const gemmKC = 256

// Gemm computes C += A*B for row-major A (m x k), B (k x n), C (m x n).
func Gemm(c, a, b []float64, m, n, k int) {
	if len(a) != m*k || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: Gemm dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	// k-tiles ascending: element (i,j) receives its p-contributions in
	// ascending p order across tiles because C persists between tiles.
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := p0 + gemmKC
		if p1 > k {
			p1 = k
		}
		for i := 0; i < m; i++ {
			arow := a[i*k : (i+1)*k]
			crow := c[i*n : (i+1)*n]
			// Zero scales are skipped, mirroring the zero-skip of the
			// per-sample MatTVec: a zero scale contributes ±0 everywhere,
			// and ReLU-sparse gradient blocks make the skip worth a
			// predictable branch.
			p := p0
			for ; p+4 <= p1; p += 4 {
				axpy4SkipZero(crow, arow[p], b[p*n:][:n], arow[p+1], b[(p+1)*n:][:n],
					arow[p+2], b[(p+2)*n:][:n], arow[p+3], b[(p+3)*n:][:n])
			}
			for ; p < p1; p++ {
				AxpySkipZero(crow, arow[p], b[p*n:][:n])
			}
		}
	}
}

// GemmNT computes C += A*Bᵀ for row-major A (m x k), B (n x k), C (m x n):
// C[i][j] is the dot product of A's row i with B's row j, accumulated in
// ascending k order starting from the incoming C value. This is the layout
// of every forward kernel in internal/nn (weights are stored row-major
// [out][in], i.e. already transposed for the dot-product form), and of the
// im2col convolution lowering. It allocates nothing and only reads A and
// B, so concurrent calls on disjoint C blocks may share B.
func GemmNT(c, a, b []float64, m, n, k int) {
	if len(a) != m*k || len(b) != n*k || len(c) != m*n {
		panic(fmt.Sprintf("tensor: GemmNT dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemmNT(c, a, b, m, n, k)
}

// GemmTN computes C += Aᵀ*B for row-major A (k x m), B (k x n), C (m x n):
// the weight-gradient kernel dW += dYᵀ·X, where k runs over the batch (or
// batch x positions) dimension. Each C element receives its k contributions
// in ascending k order because the outer loop walks k while C acts as the
// accumulator; C (a parameter gradient) is small and stays cache-resident.
func GemmTN(c, a, b []float64, m, n, k int) {
	GemmTNRows(c, a, b, m, n, k, 0, m)
}

// GemmTNRows is GemmTN restricted to the C rows [i0, i1): it streams all k
// rows of A and B but writes only those rows of C, each element with the
// same ascending-k accumulator as GemmTN. Calls on disjoint row ranges may
// therefore run concurrently, and together they equal one GemmTN bit for
// bit — the way a weight gradient is split across cores.
func GemmTNRows(c, a, b []float64, m, n, k, i0, i1 int) {
	if len(a) != k*m || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: GemmTN dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if i0 < 0 || i1 > m || i0 > i1 {
		panic(fmt.Sprintf("tensor: GemmTN row range [%d, %d) outside [0, %d)", i0, i1, m))
	}
	if i0 == i1 || n == 0 || k == 0 {
		return
	}
	// Four k rows at a time: where all four scales are non-zero, each C
	// element is loaded and stored once for its four products, which it
	// still receives as four rounded additions in ascending k order.
	p := 0
	for ; p+4 <= k; p += 4 {
		b0, b1, b2, b3 := b[p*n:][:n], b[(p+1)*n:][:n], b[(p+2)*n:][:n], b[(p+3)*n:][:n]
		for i := i0; i < i1; i++ {
			axpy4SkipZero(c[i*n:][:n], a[p*m+i], b0, a[(p+1)*m+i], b1, a[(p+2)*m+i], b2, a[(p+3)*m+i], b3)
		}
	}
	for ; p < k; p++ {
		brow := b[p*n:][:n]
		for i := i0; i < i1; i++ {
			AxpySkipZero(c[i*n:][:n], a[p*m+i], brow)
		}
	}
}

// AxpySkipZero adds a*x to y elementwise (y[i] += a*x[i], one rounded
// product and one rounded addition per element) unless a is zero; x must
// hold at least len(y) elements. A zero scale contributes a*x[i] = ±0 to
// every element; skipping it cannot change any finite sum (the
// accumulators never hold -0: they start at a stored C value produced by
// additions, and x + ±0 == x for x != -0).
func AxpySkipZero(y []float64, a float64, x []float64) {
	if a == 0 {
		return
	}
	axpy(y, a, x[:len(y)])
}

// Axpy4 sets y[i] = y[i] + a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i],
// added left to right with every product rounded on its own: four
// AxpySkipZero calls with non-zero scales, bit for bit, with each y
// element loaded and stored once. Every x must hold at least len(y)
// elements.
func Axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	n := len(y)
	axpy4(y, a0, x0[:n], a1, x1[:n], a2, x2[:n], a3, x3[:n])
}

// axpy4SkipZero is four AxpySkipZero calls in order, run as one Axpy4
// pass when all four scales are non-zero.
func axpy4SkipZero(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	if a0 != 0 && a1 != 0 && a2 != 0 && a3 != 0 {
		Axpy4(y, a0, x0, a1, x1, a2, x2, a3, x3)
		return
	}
	AxpySkipZero(y, a0, x0)
	AxpySkipZero(y, a1, x1)
	AxpySkipZero(y, a2, x2)
	AxpySkipZero(y, a3, x3)
}

// MatMulTo computes dst = A*B in place for row-major matrices A (m x k) and
// B (k x n); dst must be pre-shaped to (m x n) and is overwritten. It is
// the allocation-free core that MatMul delegates to.
func MatMulTo(dst, a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 || a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMulTo shape mismatch %v x %v", a.Shape, b.Shape))
	}
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	if dst.Rank() != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTo dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	dst.Zero()
	Gemm(dst.Data, a.Data, b.Data, m, n, k)
	return dst
}
