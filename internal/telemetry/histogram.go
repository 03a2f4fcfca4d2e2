package telemetry

import (
	"math"
	"sync/atomic"

	"retail/internal/stats"
)

// Histogram bucket layout: HDR-style log-linear over nanoseconds.
//
// A recorded value (float64 seconds) is converted to integer nanoseconds
// and bucketed by its top bit (the octave) plus the next subBits bits
// (the linear sub-bucket within the octave). With subBits = 5 every
// octave splits into 32 linear buckets, bounding the relative bucket
// width — and hence quantile error — at 1/32 ≈ 3.1%. The layout is fixed
// for every histogram, so snapshots from different histograms (or
// different processes) merge bucket-by-bucket without rebinning.
//
// Index math (n = value in nanoseconds):
//
//	n < 32:  idx = n                       (exact, 1 ns buckets)
//	else:    e   = bits.Len64(n) - 1 - subBits
//	         idx = ((e + 1) << subBits) | ((n >> e) & 31)
//
// The largest representable value is ~9.2e9 s (2^63 ns); larger values
// clamp into the final bucket. numBuckets is 1920 (15 KiB of counters).
const (
	subBits    = 5
	subCount   = 1 << subBits
	numBuckets = (64 - subBits) * subCount

	// unitScale converts recorded seconds to the integer bucketing unit
	// (nanoseconds): sub-nanosecond latencies are below any tail this
	// system can measure or act on.
	unitScale = 1e9
)

// bucketIndex maps n through the shared log-linear layout
// (stats.LogLinearIndex). Values whose top bit is set would index one
// octave past the table (they arise only from float64 inputs above
// ~2^63 ns); they clamp into the final bucket.
func bucketIndex(n uint64) int {
	idx := stats.LogLinearIndex(n, subBits)
	if idx >= numBuckets {
		return numBuckets - 1
	}
	return idx
}

// bucketBounds returns the [lower, upper) bounds of bucket idx in the
// integer unit (nanoseconds).
func bucketBounds(idx int) (lower, upper uint64) {
	return stats.LogLinearBounds(idx, subBits)
}

// Histogram is a fixed-layout log-linear histogram of float64 seconds.
// Observe is lock-free (two atomic adds plus a rare min/max CAS) and
// allocation-free; Snapshot extracts a mergeable copy for quantile
// queries and exposition. The zero value is not usable; call
// NewHistogram or Registry.Histogram.
type Histogram struct {
	buckets  []atomic.Uint64
	sumNanos atomic.Int64 // running sum in the integer unit
	minBits  atomic.Uint64
	maxBits  atomic.Uint64
}

// NewHistogram returns an empty histogram with the package's fixed
// log-linear layout.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Uint64, numBuckets)}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// Observe records v (seconds). Negative and NaN values clamp to 0 — in
// this codebase they only arise from clock retrogression and must not
// corrupt the layout.
func (h *Histogram) Observe(v float64) {
	if !(v > 0) { // catches negatives and NaN in one comparison
		v = 0
	}
	n := uint64(v * unitScale)
	h.buckets[bucketIndex(n)].Add(1)
	h.sumNanos.Add(int64(n))
	// Min/max update only when the record is a new extreme — rare after
	// warmup, so the CAS loops almost never execute.
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Merge folds o's observations into h (o is unchanged). Both sides may
// be concurrently observed: each bucket transfers with one atomic read
// and one atomic add, so a merge under load is a near-instant cut, the
// same consistency Snapshot offers. Fleet roll-ups use this to collapse
// per-node histograms into one fleet-level view.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil {
		return
	}
	var moved uint64
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
			moved += c
		}
	}
	if moved == 0 {
		return
	}
	h.sumNanos.Add(o.sumNanos.Load())
	for {
		old := h.minBits.Load()
		v := math.Float64frombits(o.minBits.Load())
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		v := math.Float64frombits(o.maxBits.Load())
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Snapshot copies the histogram state. Concurrent Observe calls may land
// between bucket reads, so a snapshot under load is a near-instant — not
// perfectly instantaneous — cut; this is the standard monitoring
// trade-off and irrelevant for tail estimation.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, numBuckets)}
	for i := range h.buckets {
		c := h.buckets[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	s.Sum = float64(h.sumNanos.Load()) / unitScale
	s.Min = math.Float64frombits(h.minBits.Load())
	s.Max = math.Float64frombits(h.maxBits.Load())
	return s
}

// HistogramSnapshot is a point-in-time copy of a Histogram. Snapshots
// with the same layout (always true within one build) merge additively,
// which is how per-worker or per-shard histograms aggregate.
type HistogramSnapshot struct {
	Counts []uint64 // len numBuckets, one per log-linear bucket
	Count  uint64
	Sum    float64
	Min    float64 // +Inf when empty
	Max    float64 // -Inf when empty
}

// Merge adds other into s.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if s.Counts == nil {
		s.Counts = make([]uint64, numBuckets)
		s.Min = math.Inf(1)
		s.Max = math.Inf(-1)
	}
	for i, c := range other.Counts {
		s.Counts[i] += c
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the mean observed value (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an estimate of the q-th quantile (q ∈ [0, 1]) with
// linear interpolation inside the selected bucket, clamped to the
// observed [Min, Max]. The estimate is within one bucket width of the
// exact sample quantile (≈ 3.1% relative error). Returns 0 when empty.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based; matches the
	// nearest-rank-with-interpolation convention closely enough that the
	// one-bucket-width guarantee dominates any rank-convention delta.
	rank := q * float64(s.Count-1)
	target := uint64(math.Floor(rank)) + 1
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if cum+c >= target {
			lo, hi := bucketBounds(i)
			// Interpolate by the target's position within this bucket's
			// population.
			frac := (float64(target-cum) - 0.5) / float64(c)
			v := (float64(lo) + frac*float64(hi-lo)) / unitScale
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
		cum += c
	}
	return s.Max
}
