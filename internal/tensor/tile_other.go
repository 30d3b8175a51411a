//go:build !amd64

package tensor

func dot4xNAVX2(z, x, w *float64, n, c int) bool { panic("tensor: no AVX2 tile on this GOARCH") }
