package tensor

import (
	"os"
	"sync"
)

// SIMD dispatch levels, in increasing order of what the CPU offers. Every
// kernel chooses its path from simd(); each assembly path rounds exactly
// like the portable Go loop it replaces, so the level changes speed only.
const (
	levelGo     = iota // portable Go loops: the oracle, and the only path off amd64
	levelAVX2          // AVX2 kernels
	levelAVX512        // AVX2 kernels plus the AVX-512F weight-gradient tiles
)

var (
	levelOnce sync.Once
	level     int
)

// simd returns the dispatch level, detecting it on the first call.
// SPECML_NOASM (any non-empty value) forces the portable Go kernels. It is
// read here, on the first dispatch, and not in a package initializer, so
// that `go test`, which records the environment a test reads, keys its
// cache on it.
func simd() int {
	levelOnce.Do(initLevel)
	return level
}

func initLevel() {
	if os.Getenv("SPECML_NOASM") == "" {
		level = detectLevel()
	}
}
