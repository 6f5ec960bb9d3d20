//go:build amd64

package tensor

// gemmInt8NTAVX2 computes C += A·Bᵀ over int8 panels with int32
// accumulation, 16 codes per VPMADDWD step. k must be a positive multiple
// of 16 (KPad16 layout). Bit-identical to gemmInt8NTGeneric: integer sums
// are exact, so blocking order cannot change the result.
func gemmInt8NTAVX2(c []int32, a, b []int8, m, n, k int)

// quantizeInt8AVX2 writes clamp(rne(src[i]*inv)) int8 codes, four per
// iteration via VCVTPD2DQ (round-to-nearest-even under the default MXCSR,
// matching math.RoundToEven in the scalar kernel). len(dst) == len(src)
// must be a multiple of 4.
func quantizeInt8AVX2(dst []int8, src []float64, inv float64)

// maxAbsAVX2 returns max(|x[i]|) over finite inputs, four lanes per
// iteration. len(x) must be a positive multiple of 4.
func maxAbsAVX2(x []float64) float64

func gemmInt8NT(c []int32, a, b []int8, m, n, k int) {
	if simd() >= levelAVX2 && k >= 16 && k%16 == 0 {
		gemmInt8NTAVX2(c, a, b, m, n, k)
		return
	}
	gemmInt8NTGeneric(c, a, b, m, n, k)
}

func quantizeInt8(dst []int8, src []float64, inv float64) {
	n := len(src)
	if simd() >= levelAVX2 && n >= 8 {
		n4 := n &^ 3
		quantizeInt8AVX2(dst[:n4], src[:n4], inv)
		quantizeInt8Generic(dst[n4:], src[n4:], inv)
		return
	}
	quantizeInt8Generic(dst, src, inv)
}

func maxAbs(x []float64) float64 {
	n := len(x)
	if simd() >= levelAVX2 && n >= 8 {
		n4 := n &^ 3
		m := maxAbsAVX2(x[:n4])
		if t := maxAbsGeneric(x[n4:]); t > m {
			m = t
		}
		return m
	}
	return maxAbsGeneric(x)
}
