package stats

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestLogLinearRoundTrip: for every value, the bucket LogLinearIndex
// assigns contains the value per LogLinearBounds — at both resolutions
// in use (telemetry's subBits=5 and HDR's subBits=6).
func TestLogLinearRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, subBits := range []uint{5, 6} {
		// Exhaustive near zero, then random across the int64 domain the
		// layout documents (the 64th octave is out of domain: HDR stores
		// int64, telemetry clamps into its final bucket before this math).
		var vals []uint64
		for u := uint64(0); u < 4096; u++ {
			vals = append(vals, u)
		}
		for i := 0; i < 100000; i++ {
			vals = append(vals, rng.Uint64()>>(1+uint(rng.Intn(63))))
		}
		for _, u := range vals {
			idx := LogLinearIndex(u, subBits)
			lo, hi := LogLinearBounds(idx, subBits)
			if u < lo || u >= hi {
				t.Fatalf("subBits=%d: value %d landed in bucket %d = [%d,%d)", subBits, u, idx, lo, hi)
			}
			if idx < 0 || idx >= LogLinearSlots(subBits) {
				t.Fatalf("subBits=%d: value %d indexed out of table: %d (slots %d)", subBits, u, idx, LogLinearSlots(subBits))
			}
		}
	}
}

// TestLogLinearErrorBound pins the layout's accuracy contract: above
// the exact range every bucket is at most value/2^subBits wide, so
// quantiles carry ≤1/32 (subBits=5) or ≤1/64 (subBits=6) relative
// error. This is the bound the telemetry and HDR doc comments promise.
func TestLogLinearErrorBound(t *testing.T) {
	for _, subBits := range []uint{5, 6} {
		sub := uint64(1) << subBits
		for idx := int(sub); idx < LogLinearSlots(subBits); idx++ {
			lo, hi := LogLinearBounds(idx, subBits)
			width := hi - lo
			if width*sub > lo {
				t.Fatalf("subBits=%d bucket %d: width %d exceeds lower/%d (lower %d)", subBits, idx, width, sub, lo)
			}
		}
	}
}

// TestLogLinearMatchesLegacyFormulas pins that rerouting hdrIndex /
// hdrValue and telemetry's bucket math through the shared core was
// behavior-preserving: the shared layout reproduces the two packages'
// original closed-form index and edge arithmetic bit-for-bit.
func TestLogLinearMatchesLegacyFormulas(t *testing.T) {
	legacyHDRIndex := func(v int64) int {
		u := uint64(v)
		if u < hdrSubBuckets {
			return int(u)
		}
		shift := bits.Len64(u) - hdrSubBits - 1
		return (shift+1)*hdrSubBuckets + int(u>>shift) - hdrSubBuckets
	}
	legacyHDRValue := func(idx int) int64 {
		if idx < hdrSubBuckets {
			return int64(idx)
		}
		shift := idx/hdrSubBuckets - 1
		off := idx % hdrSubBuckets
		return int64(hdrSubBuckets+off+1)<<shift - 1
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		v := int64(rng.Uint64() >> (1 + uint(rng.Intn(63))))
		if got, want := hdrIndex(v), legacyHDRIndex(v); got != want {
			t.Fatalf("hdrIndex(%d) = %d, legacy formula %d", v, got, want)
		}
	}
	for idx := 0; idx < hdrSlots; idx++ {
		if got, want := hdrValue(idx), legacyHDRValue(idx); got != want {
			t.Fatalf("hdrValue(%d) = %d, legacy formula %d", idx, got, want)
		}
	}
}

// LogLinearSlots returns the number of buckets the layout needs to
// cover every non-negative int64 value at the given resolution.
func LogLinearSlots(subBits uint) int {
	return (64 - int(subBits)) << subBits
}
