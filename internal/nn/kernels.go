package nn

import "math"

// The trainer's three inner loops, in Go. On an amd64 host with AVX
// kernels_amd64.s runs the same loops four lanes at a time on 256-bit
// vectors of doubles; these Go loops are the kernels everywhere else — amd64
// hosts without AVX, other architectures, and -race builds, whose detector
// cannot see writes made in assembly — and the oracle
// TestTrainerKernelsMatchGo holds the assembly to, bit for bit.
//
// Each vector lane performs the IEEE operations its Go twin performs for one
// element, on the same operands and in the same order. Go fuses a multiply
// and an add on amd64 only where math.FMA asks, so the loops below contain
// no fused operation the lanes would have to match.

// forwardTileGo sets out[4k+j] to b[k] + Σᵢ w[k][i]·x[j][i], the sum taken
// in ascending i, for four neurons k (weight rows w[k]) and four samples j
// (input rows x[j]); every row holds at least len(w[0]) values. A caller pads
// a short block by repeating a row. A sum below floor becomes floor, so
// floor 0 is relu and −Inf keeps every sum.
func forwardTileGo(out *[16]float64, b *[4]float64, w, x *[4][]float64, floor float64) {
	n := len(w[0])
	for k := range w {
		out[4*k], out[4*k+1], out[4*k+2], out[4*k+3] = dot4(w[k][:n], x[0], x[1], x[2], x[3], b[k], b[k], b[k], b[k])
	}
	for i, v := range out {
		if floor > v {
			out[i] = floor
		}
	}
}

// fold4Go adds f[0]·v[0][i], f[1]·v[1][i], f[2]·v[2][i] and f[3]·v[3][i] to
// dst[i], in that order, for every i; each v[k] holds at least len(dst)
// values.
func fold4Go(dst []float64, f *[4]float64, v *[4][]float64) {
	f0, f1, f2, f3 := f[0], f[1], f[2], f[3]
	v0, v1, v2, v3 := v[0][:len(dst)], v[1][:len(dst)], v[2][:len(dst)], v[3][:len(dst)]
	for i, g := range dst {
		g += f0 * v0[i]
		g += f1 * v1[i]
		g += f2 * v2[i]
		g += f3 * v3[i]
		dst[i] = g
	}
}

// adamCoef is one Adam step's coefficients, in the order kernels_amd64.s
// reads them.
type adamCoef struct {
	beta1, decay1, beta2, decay2, eps float64 // decayN is 1-betaN
	lr, bs, bc1, bc2                  float64 // step size, batch size, bias corrections
}

// adamUpdateGo applies one Adam update to the parameters w (moments m and v)
// from their gradient sums, which it leaves zeroed for the next batch; m, v
// and sums hold at least len(w) values.
func adamUpdateGo(w, m, v, sums []float64, c *adamCoef) {
	m, v, sums = m[:len(w)], v[:len(w)], sums[:len(w)]
	for i := range w {
		g := sums[i] / c.bs
		m[i] = c.beta1*m[i] + c.decay1*g
		v[i] = c.beta2*v[i] + c.decay2*g*g
		w[i] -= c.lr * (m[i] / c.bc1) / (math.Sqrt(v[i]/c.bc2) + c.eps)
	}
	clear(sums)
}
