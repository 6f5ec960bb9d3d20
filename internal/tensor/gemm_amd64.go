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

// gemmTileAVX512 adds into rows [0, rows) of one C strip of at most 32
// columns: C[i*ldc+j] += A[i*lda+idx*ldak]·B[idx*ldb+j] for the k indices
// idx = order[q] for q in [q0, q0+kc), or q itself when order is nil. c
// points at the strip's top-left element, a at the top row's element of
// k index 0 and b at the strip's first column in B's row 0; the strides
// count float64 elements. Bit j of cols is set for each column j present
// in the strip.
//
//go:noescape
func gemmTileAVX512(c, a, b *float64, order *int, rows, q0, kc, lda, ldak, ldb, ldc int, cols uint64)

// adamAVX2 is adamGeneric for len(w) a multiple of 4; g, m and v hold
// len(w) elements. omb1 and omb2 are 1-beta1 and 1-beta2.
//
//go:noescape
func adamAVX2(w, g, m, v []float64, lr, beta1, omb1, beta2, omb2, eps, c1, c2 float64)

// gemmNTMinRows is the fewest A rows for which GemmNT packs B panels.
// Packing costs about one pass over B per call, which the SIMD kernel
// repays only when enough rows reuse each panel; below this the scalar
// kernel is faster (single-sample inference runs GemmNT with m = 1).
const gemmNTMinRows = 4

// gemmNTRowBlock bounds the A rows of one GemmNT assembly call. The
// runtime cannot preempt a goroutine inside assembly, so one call over
// every row of a large conv GEMM (thousands) would hold off a GC
// stop-the-world for milliseconds. The AVX2 path also runs its row blocks
// outermost: 128 rows of a Table-1 conv 3 im2col block are 500 KiB, which
// stay in L2 while each of its 8-column panels passes over them.
const gemmNTRowBlock = 128

// gemmTileCols is the widest C strip of gemmTileAVX512 (four ZMM
// registers per row). It covers every Table-1 conv forward (25 or 15
// filters) in one strip, so GemmNT streams their im2col blocks once.
const gemmTileCols = 32

// gemmTileKC is the k-chunk of the AVX-512 Gemm and GemmTN: a chunk's rows
// of one B strip (32 KiB at 32 columns) stay in L1/L2 while every row
// group of C passes over them, and C holds each element's sum from one
// chunk to the next, so it still adds its products in order.
const gemmTileKC = 128

// gemmTileCallRows bounds the C rows of one gemmTileAVX512 call: 128 rows
// over a full chunk of a 32-column strip are 4096 steps of the 4 x 32
// tile (128 multiply-adds each), about 50 µs, so a goroutine never sits
// in non-preemptible assembly for long, whatever the shape.
const gemmTileCallRows = 128

// gemmNTTileMinRows is the fewest A rows for which GemmNT runs the
// AVX-512 tile rather than the AVX2 panels. Both pack all of B on every
// call, and with few rows to reuse it the panels were faster: at -cpu 1
// on the 2-vCPU Xeon the serve-monitor LSTM projection (5 x 128 x 1700)
// took 200-255 µs on the tile against 170-190 µs on the panels, and a
// single-sample conv 5 forward (20 x 25 x 375) 19-22 µs against 18-19.5
// µs. From 32 rows up the tile ties or wins (conv 3's training forward,
// 1728 x 25 x 500: 1.63 ms against 1.91 ms, BENCH_kernels.json).
const gemmNTTileMinRows = 32

func gemmNT(c, a, b []float64, m, n, k int) {
	switch {
	case simd() < levelAVX2 || m < gemmNTMinRows:
		gemmNTGeneric(c, a, b, m, n, k)
	case simd() >= levelAVX512 && m >= gemmNTTileMinRows:
		gemmNTTiles(c, a, b, m, n, k)
	case n < 4:
		gemmNTGeneric(c, a, b, m, n, k)
	default:
		j := gemmNTPanels(c, a, b, m, n, k)
		gemmNTColumns(c, a, b, m, n, k, j)
	}
}

// gemmNTTiles is GemmNT on the AVX-512 tile. For each strip of up to 32
// C columns the k-chunks run in ascending order: a chunk of Bᵀ is packed
// once into a panel whose rows are the strip's columns (row stride
// rounded up to a multiple of 8), and the tile streams every block of A
// rows over it. A strip covers every Table-1 conv, so their im2col blocks
// are read once. C carries every element's sum from one chunk to the
// next. The panel lives on this goroutine's stack: the call allocates
// nothing, and concurrent calls never share it.
func gemmNTTiles(c, a, b []float64, m, n, k int) {
	var panel [gemmKC * 8]float64
	for j := 0; j < n; j += gemmTileCols {
		w := min(gemmTileCols, n-j)
		ldp := (w + 7) &^ 7
		kc := len(panel) / ldp
		for p0 := 0; p0 < k; p0 += kc {
			p1 := min(p0+kc, k)
			// Four columns per pass; a last group of fewer repeats the
			// strip's last column into lanes the tile's mask leaves unread.
			for jj := 0; jj < w; jj += 4 {
				col := func(d int) []float64 { return b[(j+min(jj+d, w-1))*k:][p0:p1] }
				packColumns4(panel[jj:], ldp, col(0), col(1), col(2), col(3))
			}
			for i0 := 0; i0 < m; i0 += gemmNTRowBlock {
				gemmTileAVX512(&c[i0*n+j], &a[i0*k+p0], &panel[0], nil, min(gemmNTRowBlock, m-i0), 0, p1-p0, k, 1, ldp, n, uint64(1)<<w-1)
			}
		}
	}
}

// gemmNTPanels is GemmNT's AVX2 path: it computes the C columns covered
// by 8- and then 4-wide B panels and returns the first column it left to
// the scalar tail. For each block of A rows and each panel the k-tiles run
// in ascending order and C carries every element's sum from one tile to
// the next, so each element still adds its products in ascending k. The
// packed panel lives on this goroutine's stack.
func gemmNTPanels(c, a, b []float64, m, n, k int) int {
	var panel [gemmKC * 8]float64
	end := n &^ 3
	for i0 := 0; i0 < m; i0 += gemmNTRowBlock {
		rows := min(gemmNTRowBlock, m-i0)
		for j := 0; j < end; {
			w := 8
			if j+8 > end {
				w = 4
			}
			for p0 := 0; p0 < k; p0 += gemmKC {
				p1 := min(p0+gemmKC, k)
				for jj := 0; jj < w; jj += 4 {
					r := b[(j+jj)*k:]
					packColumns4(panel[jj:], w, r[p0:p1], r[k+p0:k+p1], r[2*k+p0:2*k+p1], r[3*k+p0:3*k+p1])
				}
				if w == 8 {
					gemmNT8AVX2(c[i0*n+j:], a[i0*k+p0:], &panel, rows, p1-p0, n, k)
				} else {
					gemmNT4AVX2(c[i0*n+j:], a[i0*k+p0:], &panel, rows, p1-p0, n, k)
				}
			}
			j += w
		}
	}
	return end
}

// packColumns4 transposes four B row segments into four adjacent columns
// of a panel whose rows are w elements apart: q[p*w+jj] = bjj[p].
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

// gemmTiles runs C += op(A)·B on the AVX-512 tile over C rows [i0, i1):
// element (i, j) adds A[i*lda+idx*ldak]·B[idx*n+j] for the k indices idx
// in turn (order[q], or q when order is nil). GemmTN passes lda = 1 and
// ldak = m (A stored k x m), Gemm lda and ldak = 1. Chunks of k run in
// ascending order and C holds each element's sum from one to the next.
func gemmTiles(c, a, b []float64, order []int, i0, i1, n, k, ldc, lda, ldak int) {
	var ord *int
	if order != nil {
		ord = &order[0]
	}
	for q0 := 0; q0 < k; q0 += gemmTileKC {
		kc := min(gemmTileKC, k-q0)
		for j := 0; j < n; j += gemmTileCols {
			cols := uint64(1)<<min(gemmTileCols, n-j) - 1
			for i := i0; i < i1; i += gemmTileCallRows {
				gemmTileAVX512(&c[i*ldc+j], &a[i*lda], &b[j], ord, min(gemmTileCallRows, i1-i), q0, kc, lda, ldak, n, ldc, cols)
			}
		}
	}
}

func gemm(c, a, b []float64, m, n, k, ldc, lda int) {
	if simd() < levelAVX512 {
		gemmAxpy(c, a, b, m, n, k, ldc, lda)
		return
	}
	gemmTiles(c, a, b, nil, 0, m, n, k, ldc, lda, 1)
}

func gemmTN(c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	if simd() < levelAVX512 {
		gemmTNAxpy(c, a, b, m, n, k, i0, i1, order)
		return
	}
	gemmTiles(c, a, b, order, i0, i1, n, k, n, 1, m)
}

func axpy(y []float64, a float64, x []float64) {
	if simd() >= levelAVX2 {
		axpyAVX2(y, x, a)
		return
	}
	axpyGeneric(y, a, x)
}

func axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	if simd() >= levelAVX2 {
		axpy4AVX2(y, x0, x1, x2, x3, a0, a1, a2, a3)
		return
	}
	axpy4Generic(y, a0, x0, a1, x1, a2, x2, a3, x3)
}

// adam runs AdamStep's AVX2 kernel over the leading multiple of four
// elements and returns how many it updated.
func adam(w, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) int {
	n := len(w) &^ 3
	if simd() < levelAVX2 || n == 0 {
		return 0
	}
	adamAVX2(w[:n], g[:n], m[:n], v[:n], lr, beta1, 1-beta1, beta2, 1-beta2, eps, c1, c2)
	return n
}
