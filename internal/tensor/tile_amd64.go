package tensor

func init() {
	useAVX2 = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512F()
}

// hasAVX2 reports whether the CPU has AVX2 and FMA3 and the OS saves the
// YMM registers across context switches (CPUID.1:ECX OSXSAVE, AVX and FMA,
// XCR0's SSE and AVX state bits, CPUID.7.0:EBX AVX2): the exp kernels fuse
// where Exp calls math.FMA, so a CPU without FMA3 takes the portable loops.
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx|fma) != osxsave|avx|fma {
		return false
	}
	if xcr0 := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// hasAVX512F reports whether the CPU has AVX-512F (CPUID.7.0:EBX bit 16)
// and the OS saves the opmask and ZMM registers as well as the YMM ones
// (XCR0's SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state bits). Call it
// only where hasAVX2 holds.
func hasAVX512F() bool {
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && xgetbv()&0xe6 == 0xe6
}

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0. Call it only when CPUID reports
// OSXSAVE.
func xgetbv() uint32

// dot4xNAVX2 is dot4xN's tile over n ≥ 1 columns and c ≥ 1 classes, a
// class every s values of z. It reports whether a logit may be NaN: false
// means none is.
//
//go:noescape
func dot4xNAVX2(z, x, w, b *float64, n, c, s int) (nan bool)

// dot8xNAVX512 is Dot8xN's tile over n ≥ 1 columns and c ≥ 1 classes. It
// reports whether a logit may be NaN: false means none is.
//
//go:noescape
func dot8xNAVX512(z, x, w, b *float64, n, c int) (nan bool)

// logSumExp4AVX2 is logSumExp4's kernel over c ≥ 1 classes, a class every s
// values of z. It returns the rows to retake as a bit mask, row r at bit r.
//
//go:noescape
func logSumExp4AVX2(lse *[4]float64, z *float64, c, s int) (retake int)

// logSumExp8AVX512 is LogSumExp8's kernel, logSumExp4AVX2 over eight lanes.
//
//go:noescape
func logSumExp8AVX512(lse *[8]float64, z *float64, c int) (retake int)

// expShift4AVX2 is expShift4's kernel over c ≥ 1 classes, a class every s
// values of z. It returns the number of leading classes it replaced.
//
//go:noescape
func expShift4AVX2(z *float64, c, s int, shift *[4]float64) (done int)

// expShift8AVX512 is ExpShift8's kernel, expShift4AVX2 over eight lanes.
//
//go:noescape
func expShift8AVX512(z *float64, c int, shift *[8]float64) (done int)
