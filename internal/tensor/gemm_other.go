//go:build !amd64

package tensor

func detectLevel() int { return levelGo }

func gemmNT(c, a, b []float64, m, n, k int) {
	gemmNTGeneric(c, a, b, m, n, k)
}

func gemm(c, a, b []float64, m, n, k, ldc, lda int) {
	gemmAxpy(c, a, b, m, n, k, ldc, lda)
}

func gemmTN(c, a, b []float64, m, n, k, i0, i1 int, order []int) {
	gemmTNAxpy(c, a, b, m, n, k, i0, i1, order)
}

func axpy(y []float64, a float64, x []float64) {
	axpyGeneric(y, a, x)
}

func axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	axpy4Generic(y, a0, x0, a1, x1, a2, x2, a3, x3)
}

func adam(w, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) int { return 0 }
