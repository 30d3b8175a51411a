package tensor

import "math"

func init() {
	useAVX2 = hasAVX2()
	useAVX512 = useAVX2 && hasAVX512F()
	expPath = calibratedExp()
}

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

// hasAVX512F reports whether the CPU has AVX-512F (CPUID.7.0:EBX bit 16)
// and the OS saves the opmask and ZMM registers as well as the YMM ones
// (XCR0's SSE, AVX, opmask, ZMM_Hi256 and Hi16_ZMM state bits). Call it
// only where hasAVX2 holds.
func hasAVX512F() bool {
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<16) != 0 && xgetbv()&0xe6 == 0xe6
}

// hasFMA reports whether the CPU has FMA3 (CPUID.1:ECX bit 12). Call it
// only where hasAVX2 holds.
func hasFMA() bool {
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&(1<<12) != 0
}

// expProbes are inputs on which archExp's two sequences round differently:
// math.Exp of each has one set of bits with math.useFMA and another
// without.
var expProbes = [...]uint64{
	0xc00f2f7b7a95e081, // -3.8981847359646626
	0xc01955205257928c, // -6.333131109805105
	0xc021241fc5b472ec, // -8.570554903294997
	0xc02448826b59e47a, // -10.14162002060242
	0xc03a95184e500eb4, // -26.582402128739616
	0xc0635789b7b76e08, // -154.7355612356771
	0xc07e6454eed788aa, // -486.27073558991344
	0xc08616390db781bb, // -706.7778581940141
}

// calibratedExp returns the exp sequence whose kernels — the AVX2 one, and
// the AVX-512 one where it is on — reproduce math.Exp, as this process runs
// it, on every probe: archExp's plain sequence, or its
// fused one where the CPU has FMA. It does not read math.useFMA's source
// (CPUID, GODEBUG=cpu.fma) but its result, so it follows both, and any
// change to archExp turns the kernels off rather than moving a bit.
func calibratedExp() uint8 {
	switch {
	case !useAVX2:
		return expScalar
	case expMatches(false):
		return expPlain
	case hasFMA() && expMatches(true):
		return expFused
	}
	return expScalar
}

// expMatches reports whether expShift4AVX2's fused or plain sequence gives
// math.Exp's bits on every probe, each in all four lanes, and, where the
// AVX-512 kernels are on, whether exp8AVX512's does, each probe in all eight
// lanes.
func expMatches(fused bool) bool {
	const n = len(expProbes)
	var z [4 * n]float64
	for i := range z {
		z[i] = math.Float64frombits(expProbes[i%n])
	}
	var zero [4]float64
	if expShift4AVX2(&z[0], n, &zero, fused) != n {
		return false
	}
	for i, v := range z {
		if math.Float64bits(v) != math.Float64bits(math.Exp(math.Float64frombits(expProbes[i%n]))) {
			return false
		}
	}
	for shift := 0; useAVX512 && shift < 8; shift++ {
		var z [8]float64
		for i := range z {
			z[i] = math.Float64frombits(expProbes[(i+shift)%n])
		}
		if exp8AVX512(&z, fused) != 0xff {
			return false
		}
		for i, v := range z {
			if math.Float64bits(v) != math.Float64bits(math.Exp(math.Float64frombits(expProbes[(i+shift)%n]))) {
				return false
			}
		}
	}
	return true
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

// dot8xNAVX512 is Dot8xN's tile over n ≥ 1 columns and c ≥ 1 classes. It
// reports whether a logit may be NaN: false means none is.
//
//go:noescape
func dot8xNAVX512(z, x, w *float64, n, c int) (nan bool)

// logSumExp4AVX2 is LogSumExp4's kernel over c ≥ 1 classes, with archExp's
// FMA sequence when fused is set. It returns the rows to retake as a bit
// mask, row r at bit r.
//
//go:noescape
func logSumExp4AVX2(lse *[4]float64, z *float64, c int, fused bool) (retake int)

// logSumExp8AVX512 is LogSumExp8's kernel, logSumExp4AVX2 over eight lanes.
//
//go:noescape
func logSumExp8AVX512(lse *[8]float64, z *float64, c int, fused bool) (retake int)

// exp8AVX512 replaces z by its exp in logSumExp8AVX512's sequence, fused or
// plain, and returns the lanes on archExp's fast path as a bit mask.
//
//go:noescape
func exp8AVX512(z *[8]float64, fused bool) (fast int)

// expShift4AVX2 is ExpShift4's kernel over c ≥ 1 classes. It returns the
// number of leading columns it replaced.
//
//go:noescape
func expShift4AVX2(z *float64, c int, shift *[4]float64, fused bool) (done int)
