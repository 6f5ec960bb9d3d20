// Package tensor implements the small dense linear-algebra substrate used
// by the neural-network framework: BLAS-like kernels over flat row-major
// []float64: the batched GEMMs, the im2col lowering and the Adam update.
// It deliberately avoids reflection and interface-based dispatch.
package tensor

import "fmt"

// Blocked GEMM kernels for the batched neural-network path. All three
// variants accumulate into C (C += ...) and preserve a strict per-element
// contract: every C element is produced by a single scalar accumulator that
// starts from the current C value and adds its k products in ascending k
// order. That contract is what makes the batched im2col+GEMM forward and
// backward passes bit-identical to the per-sample reference loops in
// internal/nn's tests —
// tiling and register blocking only reorder *which* elements are computed
// when, never the addition sequence within one element.
//
// The kernels are written for the shapes the nn hot paths produce: A is a
// large activation (or im2col) block streamed row by row, B is a parameter
// matrix small enough to stay cache-resident across A's rows.
//
// Zero scales. A product whose scale is zero is added like any other:
// the kernels have no data-dependent branch, so 0·Inf = NaN and 0·NaN =
// NaN reach C (a gradient meeting a non-finite weight or input turns NaN
// instead of being skipped). For finite operands a zero product leaves
// every accumulator but -0 unchanged (x + ±0 == x for x != -0), and the
// gradient accumulators of internal/nn never hold -0: they start at +0,
// and a rounded sum is -0 only when both addends are.
//
// Dispatch. Every assembly kernel vectorizes across output elements: one
// SIMD lane per C element, each adding its products with a separate
// VMULPD and VADDPD, in the scalar loop's order. Those are the two
// roundings of the Go statement `acc += a * b` (the amd64 Go compiler
// never fuses them), so the lanes match the scalar kernels bit for bit.
// The assembly never uses FMA, whose single rounding would not. On amd64
// hosts with AVX-512F (and SPECML_NOASM unset) one register-tiled kernel
// serves all three GEMMs (gemmTileAVX512 in gemm_amd64.s): it keeps a 4 x
// 32 block of C in ZMM registers for a chunk of k, with separate strides
// for A's rows and A's k index, B's rows and C's rows, and masked column
// tails. GemmTN reads A transposed through those strides, Gemm reads
// strided C and A rows in place, and GemmNT packs a k-chunk of Bᵀ into a
// panel on the stack (from 32 A rows up; fewer rows run the AVX2 panels,
// gemmNTTileMinRows). On hosts with AVX2 only, GemmNT runs 8- and 4-wide
// panel kernels with a scalar column tail, and Gemm and GemmTN are built
// from the axpy primitives (axpy, axpy4). The portable Go kernels are the
// only path elsewhere and the oracle the assembly is tested against.

// gemmKC is the k-tile size of Gemm's axpy path and of GemmNT's AVX2 B
// panels: one B tile of gemmKC rows is reused across a whole stripe of A
// rows before the next tile is touched, keeping the streamed B traffic
// inside L1/L2 for large k. Both GemmNT panels hold gemmKC*8 elements
// (16 KiB).
const gemmKC = 256

// Gemm computes C += A*B for row-major A (m x k), B (k x n) and C (m x
// n) whose rows lie ldc (C) and lda (A) elements apart: row i of C is
// c[i*ldc:][:n] and row i of A is a[i*lda:][:k], with ldc >= n and lda >=
// k, and the elements between rows are neither read nor written. B is
// dense (row stride n). A convolution's input gradient passes its
// samples' windows as C rows, a layer's input size apart.
func Gemm(c, a, b []float64, m, n, k, ldc, lda int) {
	if m < 0 || ldc < n || lda < k || len(b) != k*n || m > 0 && (len(c) < (m-1)*ldc+n || len(a) < (m-1)*lda+k) {
		panic(fmt.Sprintf("tensor: Gemm dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d ldc=%d lda=%d)",
			len(a), len(b), len(c), m, n, k, ldc, lda))
	}
	if m == 0 || n == 0 || k == 0 {
		return
	}
	gemm(c, a, b, m, n, k, ldc, lda)
}

// gemmAxpy is Gemm's portable kernel, and its AVX2 kernel through the axpy
// primitives. The k-tiles run in ascending order: element (i,j) receives
// its p-contributions in ascending p order across tiles because C
// persists between tiles.
func gemmAxpy(c, a, b []float64, m, n, k, ldc, lda int) {
	for p0 := 0; p0 < k; p0 += gemmKC {
		p1 := min(p0+gemmKC, k)
		for i := 0; i < m; i++ {
			arow := a[i*lda:][:k]
			crow := c[i*ldc:][:n]
			p := p0
			for ; p+4 <= p1; p += 4 {
				axpy4(crow, arow[p], b[p*n:][:n], arow[p+1], b[(p+1)*n:][:n],
					arow[p+2], b[(p+2)*n:][:n], arow[p+3], b[(p+3)*n:][:n])
			}
			for ; p < p1; p++ {
				axpy(crow, arow[p], b[p*n:][:n])
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

// GemmTN computes C += Aᵀ*B over the C rows [i0, i1), for row-major A
// (k x m), B (k x n) and C (m x n): the weight-gradient kernel dW += dYᵀ·X,
// where k runs over the batch (or batch x positions, or batch x timesteps)
// dimension. C element (i, j) adds A[r][i]·B[r][j] for the k rows r of A
// and B in order. The rows come in ascending order when order is nil; otherwise order
// lists them, len(order) == k, each index in [0, k). Each element is one
// accumulator that starts from its C value, so calls on disjoint row
// ranges may run concurrently and together equal one call over [0, m) bit
// for bit: the way a weight gradient is split across cores. The call
// allocates nothing.
func GemmTN(c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	if len(a) != k*m || len(b) != k*n || len(c) != m*n {
		panic(fmt.Sprintf("tensor: GemmTN dimension mismatch (a %d, b %d, c %d for m=%d n=%d k=%d)",
			len(a), len(b), len(c), m, n, k))
	}
	if i0 < 0 || i1 > m || i0 > i1 {
		panic(fmt.Sprintf("tensor: GemmTN row range [%d, %d) outside [0, %d)", i0, i1, m))
	}
	if order != nil {
		if len(order) != k {
			panic(fmt.Sprintf("tensor: GemmTN order lists %d rows, want k=%d", len(order), k))
		}
		for _, r := range order {
			if uint(r) >= uint(k) {
				panic(fmt.Sprintf("tensor: GemmTN order index %d outside [0, %d)", r, k))
			}
		}
	}
	if i0 == i1 || n == 0 || k == 0 {
		return
	}
	gemmTN(c, a, b, m, n, k, i0, i1, order)
}

// gemmTNAxpy is GemmTN's portable kernel, and its AVX2 kernel through the
// axpy primitives. Four k rows at a time: each C element is loaded and
// stored once for its four products, which it still receives as four
// rounded additions in order.
func gemmTNAxpy(c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	p := 0
	for ; p+4 <= k; p += 4 {
		r0, r1, r2, r3 := p, p+1, p+2, p+3
		if order != nil {
			r0, r1, r2, r3 = order[p], order[p+1], order[p+2], order[p+3]
		}
		b0, b1, b2, b3 := b[r0*n:][:n], b[r1*n:][:n], b[r2*n:][:n], b[r3*n:][:n]
		for i := i0; i < i1; i++ {
			axpy4(c[i*n:][:n], a[r0*m+i], b0, a[r1*m+i], b1, a[r2*m+i], b2, a[r3*m+i], b3)
		}
	}
	for ; p < k; p++ {
		r := p
		if order != nil {
			r = order[p]
		}
		brow := b[r*n:][:n]
		for i := i0; i < i1; i++ {
			axpy(c[i*n:][:n], a[r*m+i], brow)
		}
	}
}
