package cpuid

// cpuid runs CPUID for leaf and subleaf sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low word of XCR0, the state components the OS saves.
func xgetbv() uint32

// AVX is whether the CPU has AVX and the OS saves the YMM registers (CPUID
// leaf 1's OSXSAVE and AVX bits, then XGETBV). AVX2 is whether it has AVX2
// as well (CPUID leaf 7, EBX bit 5).
var AVX, AVX2 = probe()

func probe() (avx, avx2 bool) {
	const osxsave, avxBit = 1 << 27, 1 << 28
	const xmm, ymm = 1 << 1, 1 << 2
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avxBit) != osxsave|avxBit || xgetbv()&(xmm|ymm) != xmm|ymm {
		return false, false
	}
	if maxLeaf < 7 {
		return true, false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return true, ebx&(1<<5) != 0
}
