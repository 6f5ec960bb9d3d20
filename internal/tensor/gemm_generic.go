package tensor

// Portable scalar float64 kernels. They are the only implementation off
// amd64 and the SPECML_NOASM fallback on it, and the oracle the AVX2
// kernels of gemm_amd64.s are tested against bit for bit.

// gemmNTGeneric is GemmNT's scalar kernel. B rows are register-blocked
// four at a time so each loaded A element feeds four accumulators.
func gemmNTGeneric(c, a, b []float64, m, n, k int) {
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		crow := c[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			b0 := b[(j+0)*k : (j+1)*k]
			b1 := b[(j+1)*k : (j+2)*k]
			b2 := b[(j+2)*k : (j+3)*k]
			b3 := b[(j+3)*k : (j+4)*k]
			acc0, acc1, acc2, acc3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			for p, av := range arow {
				acc0 += av * b0[p]
				acc1 += av * b1[p]
				acc2 += av * b2[p]
				acc3 += av * b3[p]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = acc0, acc1, acc2, acc3
		}
		for ; j < n; j++ {
			brow := b[j*k : (j+1)*k]
			acc := crow[j]
			for p, av := range arow {
				acc += av * brow[p]
			}
			crow[j] = acc
		}
	}
}

// axpyGeneric is y[i] += a*x[i]; len(x) == len(y).
func axpyGeneric(y []float64, a float64, x []float64) {
	x = x[:len(y)]
	for i, xv := range x {
		y[i] += a * xv
	}
}

// axpy4Generic sets y[i] = y[i] + a0*x0[i] + a1*x1[i] + a2*x2[i] +
// a3*x3[i], added left to right with every product rounded on its own:
// four axpyGeneric calls in order, bit for bit, with each y element loaded
// and stored once. Every x has len(y) elements.
func axpy4Generic(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for i, v := range y {
		y[i] = v + a0*x0[i] + a1*x1[i] + a2*x2[i] + a3*x3[i]
	}
}
