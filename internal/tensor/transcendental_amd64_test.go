package tensor

import (
	"os"
	"strings"
)

// mathExpFused reports whether math.Exp runs its FMA sequence in this
// process, the one Exp reproduces: math.useFMA is the CPU's AVX and FMA
// (CPUID.1:ECX bits 28 and 12, AVX also needing OSXSAVE and XCR0's SSE and
// AVX state), either of which GODEBUG can turn off.
func mathExpFused() bool {
	const osxsave, avx, fma = 1 << 27, 1 << 28, 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&(osxsave|avx|fma) != osxsave|avx|fma || xgetbv()&6 != 6 {
		return false
	}
	for _, opt := range strings.Split(os.Getenv("GODEBUG"), ",") {
		if opt == "cpu.fma=off" || opt == "cpu.avx=off" || opt == "cpu.all=off" {
			return false
		}
	}
	return true
}
