//go:build !amd64

package tensor

func dot4xNAVX2(z, x, w, b *float64, n, c, s int) bool { panic("tensor: no AVX2 tile on this GOARCH") }

func dot8xNAVX512(z, x, w, b *float64, n, c int) bool {
	panic("tensor: no AVX-512 tile on this GOARCH")
}

func logSumExp4AVX2(lse *[4]float64, z *float64, c, s int) int {
	panic("tensor: no AVX2 log-sum-exp on this GOARCH")
}

func logSumExp8AVX512(lse *[8]float64, z *float64, c int) int {
	panic("tensor: no AVX-512 log-sum-exp on this GOARCH")
}

func expShift4AVX2(z *float64, c, s int, shift *[4]float64) int {
	panic("tensor: no AVX2 exp on this GOARCH")
}

func expShift8AVX512(z *float64, c int, shift *[8]float64) int {
	panic("tensor: no AVX-512 exp on this GOARCH")
}
