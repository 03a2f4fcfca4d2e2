//go:build !race

package nn

// On amd64 the kernels are the 4-lane AVX twins of kernels.go's loops
// (kernels_amd64.s), with the same contracts, where CPUID reports AVX and
// the OS saves its registers; a host without it runs the Go loops.

// useAVX is read once from CPUID. Only tests change it, to run the path a
// host without AVX takes.
var useAVX = cpuidAVX()

func forwardTile(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64) {
	if useAVX {
		forwardTileAVX(out, b, w, x, floor)
		return
	}
	forwardTileGo(out, b, w, x, floor)
}

func fold4(dst []float64, f *[4]float64, v *[4][]float64) {
	if useAVX {
		fold4AVX(dst, f, v)
		return
	}
	fold4Go(dst, f, v)
}

func adamUpdate(w, m, v, sums []float64, c *adamCoef) {
	if useAVX {
		adamUpdateAVX(w, m, v, sums, c)
		return
	}
	adamUpdateGo(w, m, v, sums, c)
}

func cpuidAVX() bool

//go:noescape
func forwardTileAVX(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64)

//go:noescape
func fold4AVX(dst []float64, f *[4]float64, v *[4][]float64)

//go:noescape
func adamUpdateAVX(w, m, v, sums []float64, c *adamCoef)
