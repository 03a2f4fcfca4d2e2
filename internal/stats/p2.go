package stats

// P2Quantile is the Jain/Chlamtac P² algorithm: a streaming estimate of a
// single quantile in O(1) memory, without storing observations. The
// latency monitor's windowed percentile is exact but O(window); P² offers
// a constant-footprint alternative for very high request rates, and the
// test suite uses it to cross-check the exact estimator.
type P2Quantile struct {
	p    float64
	n    int
	q    [5]float64 // marker heights
	pos  [5]float64 // marker positions (1-based)
	want [5]float64 // desired positions
	inc  [5]float64 // desired-position increments
	boot []float64  // first five observations
}

// NewP2Quantile estimates the p-quantile (p in (0,1)).
func NewP2Quantile(p float64) *P2Quantile {
	if p <= 0 || p >= 1 {
		panic("stats: P² quantile must be in (0,1)")
	}
	e := &P2Quantile{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.inc = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add incorporates one observation.
func (e *P2Quantile) Add(x float64) {
	e.n++
	if e.n <= 5 {
		e.boot = append(e.boot, x)
		if e.n == 5 {
			// Initialize markers from the sorted bootstrap.
			b := append([]float64(nil), e.boot...)
			insertionSort(b)
			for i := 0; i < 5; i++ {
				e.q[i] = b[i]
				e.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Find the cell k containing x and update extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := 0; i < 5; i++ {
		e.want[i] += e.inc[i]
	}
	// Adjust interior markers.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			s := sign(d)
			qn := e.parabolic(i, s)
			if e.q[i-1] < qn && qn < e.q[i+1] {
				e.q[i] = qn
			} else {
				e.q[i] = e.linear(i, s)
			}
			e.pos[i] += s
		}
	}
}

// parabolic is the P² quadratic interpolation step.
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback interpolation when the parabola overshoots.
func (e *P2Quantile) linear(i int, d float64) float64 {
	di := int(d)
	return e.q[i] + d*(e.q[i+di]-e.q[i])/(e.pos[i+di]-e.pos[i])
}

// Value returns the current quantile estimate; ok is false until at least
// five observations have been added.
func (e *P2Quantile) Value() (float64, bool) {
	if e.n < 5 {
		if e.n == 0 {
			return 0, false
		}
		// Fewer than five samples: fall back to the exact small-sample
		// percentile.
		b := append([]float64(nil), e.boot...)
		insertionSort(b)
		return PercentileSorted(b, e.p*100), false
	}
	return e.q[2], true
}

func sign(x float64) float64 {
	if x >= 0 {
		return 1
	}
	return -1
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
