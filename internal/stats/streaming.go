package stats

// Running accumulates a count and mean incrementally using Welford's
// update. The zero value is ready to use.
type Running struct {
	n    int
	mean float64
}

// Add incorporates x.
func (r *Running) Add(x float64) {
	r.n++
	r.mean += (x - r.mean) / float64(r.n)
}

// N returns the number of samples added.
func (r *Running) N() int { return r.n }

// Mean returns the running mean (0 when empty).
func (r *Running) Mean() float64 { return r.mean }

// Reset forgets all samples.
func (r *Running) Reset() { *r = Running{} }

// LatencyTracker stores latency samples for percentile queries over a
// sliding window of the most recent windowCap samples, as the latency
// monitor needs (the paper samples tail latency every 100 ms over the
// recent window), and cumulatively for end-of-run reporting.
//
// The window is a ring: once full, Add overwrites the oldest sample in
// place, so recording is O(1) and allocation-free however large the
// window. The ring holds the same multiset of samples a shifted slice
// would, in a rotated order; every reader takes order statistics, which
// are permutation-invariant, so window percentiles are bit-identical to
// the in-order form.
type LatencyTracker struct {
	window    []float64 // ring storage; len < windowCap until first full
	head      int       // oldest sample, and the next overwritten, once full
	windowCap int
	all       []float64
	keepAll   bool
	running   Running
}

// NewLatencyTracker returns a tracker whose sliding window holds up to
// windowCap recent samples (windowCap ≤ 0 means 4096). When keepAll is
// true every sample is also retained for exact end-of-run percentiles.
func NewLatencyTracker(windowCap int, keepAll bool) *LatencyTracker {
	if windowCap <= 0 {
		windowCap = 4096
	}
	return &LatencyTracker{windowCap: windowCap, keepAll: keepAll}
}

// Add records one latency sample (seconds).
func (t *LatencyTracker) Add(x float64) {
	t.running.Add(x)
	if t.keepAll {
		t.all = append(t.all, x)
	}
	if len(t.window) < t.windowCap {
		t.window = append(t.window, x)
		return
	}
	t.window[t.head] = x
	if t.head++; t.head == t.windowCap {
		t.head = 0
	}
}

// Count returns the total number of samples recorded.
func (t *LatencyTracker) Count() int { return t.running.N() }

// Mean returns the cumulative mean latency.
func (t *LatencyTracker) Mean() float64 { return t.running.Mean() }

// WindowPercentile returns the p-th percentile of the sliding window, and
// false when the window is empty.
func (t *LatencyTracker) WindowPercentile(p float64) (float64, bool) {
	if len(t.window) == 0 {
		return 0, false
	}
	return Percentile(t.window, p), true
}

// ResetWindow clears the sliding window but keeps cumulative state.
func (t *LatencyTracker) ResetWindow() { t.window, t.head = t.window[:0], 0 }

// ReserveAll pre-grows the keepAll buffer to hold n samples, sparing the
// append-doubling reallocations when the caller can estimate the sample
// count up front. Capacity only — retained samples are untouched.
func (t *LatencyTracker) ReserveAll(n int) {
	if !t.keepAll || cap(t.all) >= n {
		return
	}
	grown := make([]float64, len(t.all), n)
	copy(grown, t.all)
	t.all = grown
}

// Percentile returns the p-th percentile over all retained samples. It
// requires keepAll; otherwise it falls back to the window.
func (t *LatencyTracker) Percentile(p float64) (float64, bool) {
	if t.keepAll {
		if len(t.all) == 0 {
			return 0, false
		}
		return Percentile(t.all, p), true
	}
	return t.WindowPercentile(p)
}

// Quantiles returns the given quantiles (0..1) over all retained samples in
// one sort pass.
func (t *LatencyTracker) Quantiles(qs ...float64) []float64 {
	src := t.all
	if !t.keepAll {
		src = t.window
	}
	if len(src) == 0 {
		return make([]float64, len(qs))
	}
	// Quickselect per quantile instead of one full sort: selection yields
	// the same order statistics a sort would (so the results are
	// bit-identical), and for the handful of quantiles reported it is O(n)
	// per quantile against O(n log n) once. The scratch copy may be
	// permuted between calls; order statistics are permutation-invariant.
	scratch := make([]float64, len(src))
	copy(scratch, src)
	out := make([]float64, len(qs))
	for i, q := range qs {
		out[i] = PercentileInPlace(scratch, q*100)
	}
	return out
}
