//go:build amd64

package render

import (
	"os"
	"testing"
)

// TestNoasmOverride proves the SPECML_NOASM escape hatch: when the
// variable is set (the CI noasm job), the first dispatch must leave the
// AVX2 path disabled even on capable hosts, so the whole test run exercises the
// portable scalar kernels. On an unset environment the test only checks
// that dispatch agrees with detection.
func TestNoasmOverride(t *testing.T) {
	if os.Getenv("SPECML_NOASM") != "" {
		if useAVX2() {
			t.Fatal("SPECML_NOASM is set but the AVX2 path is still enabled")
		}
		return
	}
	if useAVX2() != detectAVX2() {
		t.Fatalf("hasAVX2 = %v but detectAVX2() = %v with SPECML_NOASM unset", hasAVX2, detectAVX2())
	}
}

// TestScalarDispatchForced pins that disabling the feature flag routes
// lorentzAccum through the generic loop (identical output is already
// guaranteed by the bit-identity tests; this checks the flag is honored
// even for large, vector-width-aligned inputs).
func TestScalarDispatchForced(t *testing.T) {
	saved := useAVX2()
	defer func() { hasAVX2 = saved }()
	hasAVX2 = false

	got := make([]float64, 64)
	want := make([]float64, 64)
	lorentzAccum(got, -2, 0.05, 0.7, 0.02)
	lorentzAccumGeneric(want, -2, 0.05, 0.7, 0.02)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("forced-scalar dispatch differs from generic at %d", i)
		}
	}
}
