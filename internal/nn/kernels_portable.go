//go:build !amd64 || race

package nn

// Off amd64, and under -race, the kernels are their Go twins (kernels.go).

func forwardTile(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64) {
	forwardTileGo(out, b, w, x, floor)
}

func fold4(dst []float64, f *[4]float64, v *[4][]float64) { fold4Go(dst, f, v) }

func adamUpdate(w, m, v, sums []float64, c *adamCoef) { adamUpdateGo(w, m, v, sums, c) }
