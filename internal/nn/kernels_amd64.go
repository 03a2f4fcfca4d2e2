//go:build !race

package nn

// The packed-SSE2 twins of kernels.go's loops, with the same contracts;
// SSE2 is the amd64 baseline, so there is nothing to detect.

//go:noescape
func forwardTile(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64)

//go:noescape
func fold4(dst []float64, f *[4]float64, v *[4][]float64)

//go:noescape
func adamUpdate(w, m, v, sums []float64, c *adamCoef)
