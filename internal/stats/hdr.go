package stats

// HDR is a fixed-memory high-dynamic-range histogram over non-negative
// int64 values (conventionally nanoseconds), in the style of Gil Tene's
// HdrHistogram: values bucket into octaves of 2 with hdrSubBuckets
// linear sub-buckets per octave, so relative quantization error is
// bounded by 1/hdrSubBuckets (≈1.6%) at every magnitude from 1 ns to
// hours. Recording is O(1) with no allocation, which is what an open-loop
// load generator needs on its response path; quantile queries scan the
// ~3.7k-slot count array.
//
// The zero value is ready to use. HDR is not safe for concurrent use:
// writers keep a private histogram each and Merge them afterwards.
type HDR struct {
	counts [hdrSlots]int64
	total  int64
	min    int64
	max    int64
}

const (
	hdrSubBits    = 6
	hdrSubBuckets = 1 << hdrSubBits // 64 linear sub-buckets per octave
	// 57 shifted octaves above the exact [0,64) range cover all of int64.
	hdrSlots = (64 - hdrSubBits) * hdrSubBuckets
)

// hdrIndex maps a value to its bucket via the shared log-linear layout
// (loglinear.go). Values below hdrSubBuckets are exact; larger ones
// drop to hdrSubBits+1 significant bits.
func hdrIndex(v int64) int {
	return LogLinearIndex(uint64(v), hdrSubBits)
}

// hdrValue returns the upper edge of bucket idx — quantiles report a
// value ≥ the true order statistic, erring conservative on tails.
func hdrValue(idx int) int64 {
	_, upper := LogLinearBounds(idx, hdrSubBits)
	return int64(upper) - 1
}

// Record adds one observation. Negative values clamp to zero (a
// client-side clock skew artifact, not worth a branch in callers).
func (h *HDR) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[hdrIndex(v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.total++
}

// Count returns the number of recorded observations.
func (h *HDR) Count() int64 { return h.total }

// Min and Max return the exact extremes (not bucket edges).
func (h *HDR) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}
func (h *HDR) Max() int64 { return h.max }

// Quantile returns an upper bound for the q-quantile (q in [0,1]) that
// is within one bucket width — ≤1.6% relative error — of the true order
// statistic. Returns 0 on an empty histogram.
func (h *HDR) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	// rank in [1, total]: the smallest k with cumulative count ≥ k.
	rank := int64(q*float64(h.total) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			v := hdrValue(i)
			if v > h.max {
				return h.max
			}
			return v
		}
	}
	return h.max
}
