// Log-linear bucket layout shared by every histogram in the repo.
//
// Both stats.HDR (int64 nanoseconds, 64 sub-buckets per octave) and
// telemetry.Histogram (float64 seconds scaled to nanoseconds, 32
// sub-buckets per octave) bucket values the same way: the top bit of
// the value selects the octave and the next subBits bits select a
// linear sub-bucket within it, bounding relative quantization error by
// 1/2^subBits at every magnitude. Historically each package carried its
// own copy of the index arithmetic; they were the same formula with a
// different subBits, so the layout now lives here once and both route
// through it. The two layouts remain distinct on the wire — merging
// histograms still requires equal subBits — but the arithmetic, and its
// tests, exist in exactly one place.
package stats

import "math/bits"

// LogLinearIndex maps u to its bucket. Values below 2^subBits are
// exact (width-1 buckets); larger values keep subBits+1 significant
// bits, so the bucket containing u is at most u/2^subBits wide.
func LogLinearIndex(u uint64, subBits uint) int {
	sub := uint64(1) << subBits
	if u < sub {
		return int(u)
	}
	e := uint(bits.Len64(u)) - 1 - subBits
	return ((int(e) + 1) << subBits) | int((u>>e)&(sub-1))
}

// LogLinearBounds returns the [lower, upper) value range of bucket idx.
// It is the inverse of LogLinearIndex: for every u,
// lower ≤ u < upper holds for the bucket LogLinearIndex assigns u to.
func LogLinearBounds(idx int, subBits uint) (lower, upper uint64) {
	sub := 1 << subBits
	if idx < sub {
		return uint64(idx), uint64(idx) + 1
	}
	e := uint(idx>>subBits) - 1
	off := uint64(idx & (sub - 1))
	lower = (uint64(sub) + off) << e
	return lower, lower + 1<<e
}
