package tensor

import (
	"os"
	"testing"
)

var levelNames = [...]string{levelGo: "go", levelAVX2: "avx2", levelAVX512: "avx512"}

// withLevel runs f at dispatch level l, then restores the level simd()
// chose for this process. It is the test hook that runs every kernel path
// the host has inside one `go test` process.
func withLevel(l int, f func()) {
	saved := simd()
	level = l
	defer func() { level = saved }()
	f()
}

// hostLevels lists the dispatch levels this process can run: every level
// up to the one simd() chose (only levelGo under SPECML_NOASM).
func hostLevels() []int {
	var ls []int
	for l := levelGo; l <= simd(); l++ {
		ls = append(ls, l)
	}
	return ls
}

// forEachLevel runs f as one subtest per host level, named after it.
func forEachLevel(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, l := range hostLevels() {
		withLevel(l, func() { t.Run(levelNames[l], f) })
	}
}

// TestDispatchLevels checks the gate and logs which kernel paths this
// run's level-by-level tests cover, so a CI log shows when a runner lacks
// AVX-512 and that path went unexercised.
func TestDispatchLevels(t *testing.T) {
	if os.Getenv("SPECML_NOASM") != "" {
		if simd() != levelGo {
			t.Fatalf("SPECML_NOASM is set but dispatch level is %s", levelNames[simd()])
		}
	} else if simd() != detectLevel() {
		t.Fatalf("dispatch level %s, CPU supports %s", levelNames[simd()], levelNames[detectLevel()])
	}
	var names []string
	for _, l := range hostLevels() {
		names = append(names, levelNames[l])
	}
	t.Logf("dispatch levels tested: %v (CPU supports up to %s)", names, levelNames[detectLevel()])
}
