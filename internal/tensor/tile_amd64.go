package tensor

func init() { useAVX2 = hasAVX2() }

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (CPUID.1:ECX OSXSAVE and AVX, XCR0's
// SSE and AVX state bits, CPUID.7.0:EBX AVX2).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0. Call it only when CPUID reports
// OSXSAVE.
func xgetbv() uint32

// dot4xNAVX2 is Dot4xN's tile over n ≥ 1 columns and c ≥ 1 classes. It
// reports whether a logit may be NaN: false means none is.
//
//go:noescape
func dot4xNAVX2(z, x, w *float64, n, c int) (nan bool)
