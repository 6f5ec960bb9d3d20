//go:build amd64

package tensor

// gemmNT8AVX2 adds A·Pᵀ into an m x 8 block of C: C[i*ldc+jj] +=
// Σ_{p<kc} a[i*lda+p]·panel[p*8+jj], ascending p, one lane per C element.
// kc must be at least 1; the caller guarantees that the rows it addresses
// lie inside c and a.
//
//go:noescape
func gemmNT8AVX2(c, a []float64, panel *[gemmKC * 8]float64, m, kc, ldc, lda int)

// gemmNT4AVX2 is gemmNT8AVX2 for an m x 4 block and a four-column panel
// (panel[p*4+jj]).
//
//go:noescape
func gemmNT4AVX2(c, a []float64, panel *[gemmKC * 8]float64, m, kc, ldc, lda int)

// axpy4AVX2 is axpy4Generic; every x holds at least len(y) elements.
//
//go:noescape
func axpy4AVX2(y, x0, x1, x2, x3 []float64, a0, a1, a2, a3 float64)

// axpyAVX2 is axpyGeneric; x holds at least len(y) elements.
//
//go:noescape
func axpyAVX2(y, x []float64, a float64)

// gemmNTMinRows is the fewest A rows for which GemmNT packs B panels.
// Packing costs about one pass over B per call, which the SIMD kernel
// repays only when enough rows reuse each panel; below this the scalar
// kernel is faster (single-sample inference runs GemmNT with m = 1).
const gemmNTMinRows = 4

// gemmNTRowBlock bounds the A rows one assembly call covers. The runtime
// cannot preempt a goroutine inside assembly, so one call over every row
// of a large conv GEMM (thousands) would hold off a GC stop-the-world for
// milliseconds; 128 rows of a full k-tile take about 35 µs.
const gemmNTRowBlock = 128

func gemmNT(c, a, b []float64, m, n, k int) {
	if !hasAVX2 || m < gemmNTMinRows || n < 4 {
		gemmNTGeneric(c, a, b, m, n, k)
		return
	}
	j := gemmNTPanels(c, a, b, m, n, k)
	gemmNTColumns(c, a, b, m, n, k, j)
}

// gemmNTPanels computes the C columns covered by 8- and then 4-wide B
// panels and returns the first column it left to the scalar tail. For each
// panel the k-tiles run in ascending order and C carries every element's
// sum from one tile to the next, so each element still adds its products
// in ascending k. The packed panel lives on this goroutine's stack: the
// call allocates nothing, and concurrent calls never share it.
func gemmNTPanels(c, a, b []float64, m, n, k int) int {
	var panel [gemmKC * 8]float64
	j := 0
	for j+4 <= n {
		w := 8
		if j+8 > n {
			w = 4
		}
		for p0 := 0; p0 < k; p0 += gemmKC {
			p1 := min(p0+gemmKC, k)
			for jj := 0; jj < w; jj += 4 {
				r := b[(j+jj)*k:]
				packColumns4(panel[jj:], w, r[p0:p1], r[k+p0:k+p1], r[2*k+p0:2*k+p1], r[3*k+p0:3*k+p1])
			}
			for i0 := 0; i0 < m; i0 += gemmNTRowBlock {
				rows := min(gemmNTRowBlock, m-i0)
				if w == 8 {
					gemmNT8AVX2(c[i0*n+j:], a[i0*k+p0:], &panel, rows, p1-p0, n, k)
				} else {
					gemmNT4AVX2(c[i0*n+j:], a[i0*k+p0:], &panel, rows, p1-p0, n, k)
				}
			}
		}
		j += w
	}
	return j
}

// packColumns4 transposes four B row segments into four adjacent columns
// of a w-wide panel: q[p*w+jj] = bjj[p].
func packColumns4(q []float64, w int, b0, b1, b2, b3 []float64) {
	b1, b2, b3 = b1[:len(b0)], b2[:len(b0)], b3[:len(b0)]
	for p, v := range b0 {
		d := q[p*w:][:4]
		d[0], d[1], d[2], d[3] = v, b1[p], b2[p], b3[p]
	}
}

// gemmNTColumns computes C columns [j0, n) in scalar Go, four A rows at a
// time so four independent accumulators hide the addition latency; each
// element keeps its single ascending-k accumulator.
func gemmNTColumns(c, a, b []float64, m, n, k, j0 int) {
	for j := j0; j < n; j++ {
		brow := b[j*k : (j+1)*k]
		i := 0
		for ; i+4 <= m; i += 4 {
			a0, a1, a2, a3 := a[i*k:][:k], a[(i+1)*k:][:k], a[(i+2)*k:][:k], a[(i+3)*k:][:k]
			acc0, acc1, acc2, acc3 := c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j]
			for p, bv := range brow {
				acc0 += a0[p] * bv
				acc1 += a1[p] * bv
				acc2 += a2[p] * bv
				acc3 += a3[p] * bv
			}
			c[i*n+j], c[(i+1)*n+j], c[(i+2)*n+j], c[(i+3)*n+j] = acc0, acc1, acc2, acc3
		}
		for ; i < m; i++ {
			arow := a[i*k:][:k]
			acc := c[i*n+j]
			for p, bv := range brow {
				acc += arow[p] * bv
			}
			c[i*n+j] = acc
		}
	}
}

func axpy(y []float64, a float64, x []float64) {
	if hasAVX2 {
		axpyAVX2(y, x, a)
		return
	}
	axpyGeneric(y, a, x)
}

func axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	if hasAVX2 {
		axpy4AVX2(y, x0, x1, x2, x3, a0, a1, a2, a3)
		return
	}
	axpy4Generic(y, a0, x0, a1, x1, a2, x2, a3, x3)
}
