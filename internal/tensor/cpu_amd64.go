//go:build amd64

package tensor

// cpuid and xgetbv are implemented in cpu_amd64.s.
func cpuid(op, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectLevel reports the highest dispatch level the CPU and the OS
// support. AVX2 needs the CPUID flag (leaf 7 EBX bit 5) and OSXSAVE plus
// XCR0 bits 1-2 (the OS saves XMM and YMM state). AVX-512F needs its flag
// (leaf 7 EBX bit 16) and XCR0 bits 5-7 as well (opmask registers, the
// upper halves of ZMM0-15, and ZMM16-31).
func detectLevel() int {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return levelGo
	}
	_, _, ecx, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return levelGo
	}
	xcr0, _ := xgetbv()
	_, ebx, _, _ := cpuid(7, 0)
	if xcr0&0x6 != 0x6 || ebx&(1<<5) == 0 {
		return levelGo
	}
	if xcr0&0xe6 == 0xe6 && ebx&(1<<16) != 0 {
		return levelAVX512
	}
	return levelAVX2
}
