//go:build amd64

package render

import (
	"os"
	"sync"
)

// cpuid and xgetbv are implemented in lorentz_amd64.s.
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// lorentzAccumAVX2 adds num/(d²+g2) for d = d0 + i·step onto dst, four
// lanes per iteration. len(dst) must be a multiple of 4. Implemented in
// lorentz_amd64.s with plain VMULPD/VADDPD/VDIVPD (no FMA contraction), so
// every lane performs exactly the IEEE operations of the scalar loop and
// the results are bit-identical to lorentzAccumGeneric.
func lorentzAccumAVX2(dst []float64, d0, step, num, g2 float64)

// lorentzPairAccumAVX2 is the paired form (n1·B + n2·A)/(A·B): one division
// per point for two peaks. len(dst) must be a multiple of 4; same
// bit-identity contract with lorentzPairAccumGeneric as the single kernel.
func lorentzPairAccumAVX2(dst []float64, d01, g21, num1, d02, g22, num2, step float64)

var (
	avx2Once sync.Once
	hasAVX2  bool
)

// useAVX2 reports whether to run the AVX2 kernels, deciding on the first
// call. SPECML_NOASM (any non-empty value) forces the portable scalar
// kernels even on AVX2-capable hosts, so CI can prove the scalar/SIMD
// bit-identity contract by running the same tests down both dispatch
// paths. It is read here, on the first dispatch, and not in a package
// initializer, so that `go test`, which records the environment a test
// reads, keys its cache on it.
func useAVX2() bool {
	avx2Once.Do(func() { hasAVX2 = os.Getenv("SPECML_NOASM") == "" && detectAVX2() })
	return hasAVX2
}

// detectAVX2 reports whether the CPU and OS support AVX2 (CPUID feature
// flag plus OSXSAVE/XGETBV confirmation that YMM state is preserved).
func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// lorentzAccum dispatches the Lorentzian accumulation loop: the division is
// the per-point cost floor of area-accurate Lorentzian rendering, so the
// hot path runs it four lanes wide where the host allows.
func lorentzAccum(dst []float64, d0, step, num, g2 float64) {
	n := len(dst)
	if useAVX2() && n >= 8 {
		n4 := n &^ 3
		lorentzAccumAVX2(dst[:n4], d0, step, num, g2)
		for i := n4; i < n; i++ {
			d := d0 + float64(i)*step
			dst[i] += num / (d*d + g2)
		}
		return
	}
	lorentzAccumGeneric(dst, d0, step, num, g2)
}

// lorentzAccumPair dispatches the two-peak fused accumulation.
func lorentzAccumPair(dst []float64, d01, g21, num1, d02, g22, num2, step float64) {
	n := len(dst)
	if useAVX2() && n >= 8 {
		n4 := n &^ 3
		lorentzPairAccumAVX2(dst[:n4], d01, g21, num1, d02, g22, num2, step)
		for i := n4; i < n; i++ {
			t := float64(i) * step
			d1 := d01 + t
			d2 := d02 + t
			a := d1*d1 + g21
			b := d2*d2 + g22
			dst[i] += (num1*b + num2*a) / (a * b)
		}
		return
	}
	lorentzPairAccumGeneric(dst, d01, g21, num1, d02, g22, num2, step)
}
