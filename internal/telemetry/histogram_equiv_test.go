package telemetry

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"retail/internal/stats"
)

// TestHistogramHDREquivalence records one latency stream into both
// histogram implementations — telemetry.Histogram (float64 seconds,
// 32 sub-buckets/octave) and stats.HDR (int64 ns, 64 sub-buckets) —
// and pins that each quantile stays inside its layout's error bound
// against the exact sample quantile, and that the two implementations
// therefore agree within the coarser (telemetry) bucket width. Both
// now route through stats.LogLinear*, so this is the observable
// contract of the unification satellite.
func TestHistogramHDREquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 50000
	h := NewHistogram()
	var hdr stats.HDR
	exact := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Log-uniform over 10µs..1s — every octave a tail service sees.
		v := math.Pow(10, -5+5*rng.Float64())
		h.Observe(v)
		hdr.Record(int64(v * 1e9))
		exact = append(exact, v)
	}
	sort.Float64s(exact)

	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		want := exact[int(q*float64(n-1))]
		tol := BucketWidthAt(want) // one subBits=5 bucket: ≤1/32 relative

		got := h.Snapshot().Quantile(q)
		if math.Abs(got-want) > tol {
			t.Errorf("telemetry q%g = %v, exact %v (tol %v)", q, got, want, tol)
		}
		gotHDR := float64(hdr.Quantile(q)) / 1e9
		// HDR reports a bucket upper edge: within one subBits=6 bucket,
		// i.e. ≤1/64 relative — at most half the telemetry tolerance.
		if gotHDR < want-tol/2 || gotHDR > want+tol/2 {
			t.Errorf("hdr q%g = %v, exact %v (tol %v)", q, gotHDR, want, tol/2)
		}
		if math.Abs(got-gotHDR) > 2*tol {
			t.Errorf("implementations disagree at q%g: telemetry %v vs hdr %v", q, got, gotHDR)
		}
	}
}

// TestHistogramMerge pins the new (*Histogram).Merge against the
// ground truth: merging shards is indistinguishable from observing
// every value into one histogram.
func TestHistogramMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	whole, a, b := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 10000; i++ {
		v := rng.ExpFloat64() * 0.01
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	merged := NewHistogram()
	merged.Merge(a)
	merged.Merge(b)
	if got, want := merged.Snapshot(), whole.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("merge of shards differs from whole:\n got count=%d sum=%v min=%v max=%v\nwant count=%d sum=%v min=%v max=%v",
			got.Count, got.Sum, got.Min, got.Max, want.Count, want.Sum, want.Min, want.Max)
	}
	// Merging an empty histogram is a no-op, including on min/max.
	before := merged.Snapshot()
	merged.Merge(NewHistogram())
	merged.Merge(nil)
	if got := merged.Snapshot(); !reflect.DeepEqual(got, before) {
		t.Fatal("merging an empty histogram perturbed state")
	}
}
