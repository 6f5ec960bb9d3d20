// Package tensor implements the small dense linear-algebra substrate used
// by the neural-network framework: BLAS-like kernels over flat row-major
// []float64: the batched GEMMs, the im2col lowering, the Adam update and
// the per-sample matrix-vector products.
// It deliberately avoids reflection and interface-based dispatch.
package tensor

// MatVec computes out = W*x where W is (rows x cols) row-major. out must
// have length rows and x length cols. out is overwritten.
func MatVec(out, w, x []float64, rows, cols int) {
	if len(w) != rows*cols || len(x) != cols || len(out) != rows {
		panic("tensor: MatVec dimension mismatch")
	}
	for r := 0; r < rows; r++ {
		row := w[r*cols : (r+1)*cols]
		s := 0.0
		for c, v := range row {
			s += v * x[c]
		}
		out[r] = s
	}
}

// MatTVec computes out = Wᵀ*y where W is (rows x cols) row-major and y has
// length rows; out (length cols) is overwritten. This is the input-gradient
// kernel of a dense layer.
func MatTVec(out, w, y []float64, rows, cols int) {
	if len(w) != rows*cols || len(y) != rows || len(out) != cols {
		panic("tensor: MatTVec dimension mismatch")
	}
	for c := range out {
		out[c] = 0
	}
	for r := 0; r < rows; r++ {
		yr := y[r]
		row := w[r*cols : (r+1)*cols]
		for c, v := range row {
			out[c] += v * yr
		}
	}
}

// OuterAccum accumulates grad += y ⊗ x into a (rows x cols) row-major
// gradient buffer: grad[r][c] += y[r]*x[c]. This is the weight-gradient
// kernel of a dense layer.
func OuterAccum(grad, y, x []float64, rows, cols int) {
	if len(grad) != rows*cols || len(y) != rows || len(x) != cols {
		panic("tensor: OuterAccum dimension mismatch")
	}
	for r := 0; r < rows; r++ {
		yr := y[r]
		g := grad[r*cols : (r+1)*cols]
		for c, v := range x {
			g[c] += yr * v
		}
	}
}
