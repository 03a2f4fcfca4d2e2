package stats

import (
	"math/rand"
	"sort"
	"testing"
)

// TestHDRExactSmall: values below one octave of sub-buckets are exact.
func TestHDRExactSmall(t *testing.T) {
	var h HDR
	for v := int64(0); v < 64; v++ {
		h.Record(v)
	}
	if h.Count() != 64 || h.Min() != 0 || h.Max() != 63 {
		t.Fatalf("count=%d min=%d max=%d", h.Count(), h.Min(), h.Max())
	}
	if got := h.Quantile(0.5); got != 31 && got != 32 {
		t.Fatalf("p50 = %d, want 31 or 32", got)
	}
	if got := h.Quantile(1); got != 63 {
		t.Fatalf("p100 = %d, want 63", got)
	}
}

// TestHDRQuantileAccuracy: against an exact sorted reference over a
// heavy-tailed sample, every quantile lands within the documented 1.6%
// relative error (plus the half-rank rounding at the extreme tail).
func TestHDRQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h HDR
	xs := make([]int64, 0, 200000)
	for i := 0; i < 200000; i++ {
		// Lognormal-ish: microseconds to seconds in nanoseconds.
		v := int64(1000 * (1 + rng.ExpFloat64()*rng.ExpFloat64()*1e3))
		h.Record(v)
		xs = append(xs, v)
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999, 0.9999} {
		got := h.Quantile(q)
		rank := int(q*float64(len(xs))+0.5) - 1
		lo, hi := rank-1, rank+1 // half-up rank rounding tolerance
		if lo < 0 {
			lo = 0
		}
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		min := float64(xs[lo]) * (1 - 1.0/hdrSubBuckets)
		max := float64(xs[hi]) * (1 + 1.0/hdrSubBuckets)
		if float64(got) < min || float64(got) > max {
			t.Errorf("q=%g: got %d, want within [%g, %g] (exact %d)", q, got, min, max, xs[rank])
		}
	}
}

// TestHDRRoundTrip: every bucket's reported value indexes back into the
// same bucket, so quantiles can never report a value from a different
// bucket than the rank lands in.
func TestHDRRoundTrip(t *testing.T) {
	for idx := 0; idx < hdrSlots; idx++ {
		v := hdrValue(idx)
		if v < 0 {
			break // past int64 range
		}
		if got := hdrIndex(v); got != idx {
			t.Fatalf("hdrIndex(hdrValue(%d)) = %d", idx, got)
		}
	}
}

// TestHDREmptyAndNegative: zero-value usability and negative clamping.
func TestHDREmptyAndNegative(t *testing.T) {
	var h HDR
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Record(-5)
	if h.Count() != 1 || h.Min() != 0 {
		t.Fatalf("negative record: count=%d min=%d", h.Count(), h.Min())
	}
}
