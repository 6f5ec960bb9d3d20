package tensor

import (
	"fmt"
	"math"
)

// AdamStep applies one Adam update to the parameters w from their gradient
// g, updating the first- and second-moment estimates m and v in place;
// c1 and c2 are the bias corrections 1 - beta1^t and 1 - beta2^t. Every
// element runs the statements
//
//	m = beta1*m + (1-beta1)*g
//	v = beta2*v + (1-beta2)*g*g
//	w -= lr * (m/c1) / (sqrt(v/c2) + eps)
//
// with Go's left-to-right association and one rounding per operation. The
// AVX2 kernel runs them four elements at a time with the same operations:
// VDIVPD and VSQRTPD round correctly, like the scalar division and
// math.Sqrt, so both paths give the same bits.
func AdamStep(w, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) {
	if len(g) != len(w) || len(m) != len(w) || len(v) != len(w) {
		panic(fmt.Sprintf("tensor: AdamStep length mismatch (w %d, g %d, m %d, v %d)", len(w), len(g), len(m), len(v)))
	}
	i := adam(w, g, m, v, lr, beta1, beta2, eps, c1, c2)
	adamGeneric(w[i:], g[i:], m[i:], v[i:], lr, beta1, beta2, eps, c1, c2)
}

// adamGeneric is AdamStep's portable loop and the oracle of its assembly.
func adamGeneric(w, g, m, v []float64, lr, beta1, beta2, eps, c1, c2 float64) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i, gi := range g {
		m[i] = beta1*m[i] + (1-beta1)*gi
		v[i] = beta2*v[i] + (1-beta2)*gi*gi
		mHat := m[i] / c1
		vHat := v[i] / c2
		w[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
	}
}
