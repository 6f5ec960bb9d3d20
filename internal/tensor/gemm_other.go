//go:build !amd64

package tensor

func gemmNT(c, a, b []float64, m, n, k int) {
	gemmNTGeneric(c, a, b, m, n, k)
}

func axpy(y []float64, a float64, x []float64) {
	axpyGeneric(y, a, x)
}

func axpy4(y []float64, a0 float64, x0 []float64, a1 float64, x1 []float64,
	a2 float64, x2 []float64, a3 float64, x3 []float64) {
	axpy4Generic(y, a0, x0, a1, x1, a2, x2, a3, x3)
}
