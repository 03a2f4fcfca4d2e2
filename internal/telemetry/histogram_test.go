package telemetry

import (
	"math"
	"math/rand"
	"testing"

	"retail/internal/stats"
)

func TestBucketLayoutInvariants(t *testing.T) {
	// Bounds must tile the value space: contiguous, non-overlapping,
	// monotone, and bucketIndex must map every bound into its bucket.
	var prevHi uint64
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if i == 0 && lo != 0 {
			t.Fatalf("bucket 0 starts at %d, want 0", lo)
		}
		if i > 0 && lo != prevHi {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if hi <= lo {
			t.Fatalf("bucket %d empty: [%d, %d)", i, lo, hi)
		}
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(lower %d) = %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Fatalf("bucketIndex(upper-1 %d) = %d, want %d", hi-1, got, i)
		}
		prevHi = hi
	}
	// Values past the last bucket clamp instead of panicking.
	if got := bucketIndex(math.MaxUint64); got != numBuckets-1 {
		t.Fatalf("bucketIndex(MaxUint64) = %d, want %d", got, numBuckets-1)
	}
}

func TestBucketRelativeWidth(t *testing.T) {
	// Above the linear region, bucket width must stay ≤ 1/32 of the
	// bucket's lower bound — the histogram's accuracy contract.
	for i := subCount; i < numBuckets; i++ {
		lo, hi := bucketBounds(i)
		if w := hi - lo; float64(w) > float64(lo)/float64(subCount)+1 {
			t.Fatalf("bucket %d [%d,%d) width %d exceeds lo/32", i, lo, hi, w)
		}
	}
}

func TestHistogramObserveEdgeCases(t *testing.T) {
	h := NewHistogram()
	h.Observe(-1)         // clamps to 0
	h.Observe(0)          //
	h.Observe(math.NaN()) // clamps to 0
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.Sum != 0 {
		t.Fatalf("sum = %v, want 0", s.Sum)
	}
	if s.Counts[0] != 3 {
		t.Fatalf("zero bucket = %d, want 3", s.Counts[0])
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewHistogram()
	if got := h.Snapshot().Quantile(0.99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Observe(0.004)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Snapshot().Quantile(q)
		if math.Abs(got-0.004) > BucketWidthAt(0.004) {
			t.Fatalf("single-sample q%.2f = %v, want ≈0.004", q, got)
		}
	}
}

// TestQuantileMatchesLatencyTracker is the accuracy contract: the
// histogram's p50/p95/p99/p99.9 must land within one bucket width of the
// exact sample quantiles computed by stats.LatencyTracker on the same
// stream — that is what makes the telemetry tail usable for QoS′
// steering in place of the tracker.
func TestQuantileMatchesLatencyTracker(t *testing.T) {
	for _, c := range []struct {
		name string
		seed int64
		gen  func(*rand.Rand) float64
	}{
		{"exponential-ms", 11, func(r *rand.Rand) float64 { return r.ExpFloat64() * 2e-3 }},
		{"lognormal", 11, func(r *rand.Rand) float64 { return math.Exp(r.NormFloat64()) * 1e-3 }},
		{"bimodal", 11, func(r *rand.Rand) float64 {
			if r.Float64() < 0.9 {
				return 1e-3 + r.Float64()*1e-4
			}
			return 20e-3 + r.Float64()*5e-3
		}},
		// Service times of a few milliseconds with a narrower spread.
		{"lognormal-2ms", 42, func(r *rand.Rand) float64 { return 0.002 * math.Exp(0.6*r.NormFloat64()) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(c.seed))
			h := NewHistogram()
			lt := stats.NewLatencyTracker(0, true)
			for i := 0; i < 50000; i++ {
				v := c.gen(rng)
				h.Observe(v)
				lt.Add(v)
			}
			s := h.Snapshot()
			for _, q := range []float64{0.50, 0.95, 0.99, 0.999} {
				exact, ok := lt.Percentile(q * 100)
				if !ok {
					t.Fatal("tracker empty")
				}
				got := s.Quantile(q)
				tol := BucketWidthAt(exact)
				if math.Abs(got-exact) > tol {
					t.Errorf("q%g: histogram %.6g vs exact %.6g (tolerance %.3g)", q, got, exact, tol)
				}
			}
		})
	}
}

func TestSnapshotMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Per-worker histograms merged must equal one global histogram.
	global := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	for i := 0; i < 30000; i++ {
		v := rng.ExpFloat64() * 3e-3
		global.Observe(v)
		parts[i%len(parts)].Observe(v)
	}
	var merged HistogramSnapshot
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	gs := global.Snapshot()
	if merged.Count != gs.Count {
		t.Fatalf("merged count %d != global %d", merged.Count, gs.Count)
	}
	if math.Abs(merged.Sum-gs.Sum) > 1e-9 {
		t.Fatalf("merged sum %v != global %v", merged.Sum, gs.Sum)
	}
	if merged.Min != gs.Min || merged.Max != gs.Max {
		t.Fatalf("merged min/max %v/%v != global %v/%v", merged.Min, merged.Max, gs.Min, gs.Max)
	}
	for i := range merged.Counts {
		if merged.Counts[i] != gs.Counts[i] {
			t.Fatalf("bucket %d: merged %d != global %d", i, merged.Counts[i], gs.Counts[i])
		}
	}
	if g, m := gs.Quantile(0.95), merged.Quantile(0.95); g != m {
		t.Fatalf("p95 differs after merge: %v vs %v", g, m)
	}
}

func TestHistogramMeanMatchesSum(t *testing.T) {
	h := NewHistogram()
	vals := []float64{0.001, 0.002, 0.003, 0.010}
	sum := 0.0
	for _, v := range vals {
		h.Observe(v)
		sum += v
	}
	s := h.Snapshot()
	if math.Abs(s.Mean()-sum/float64(len(vals))) > 1e-9 {
		t.Fatalf("mean = %v, want %v", s.Mean(), sum/4)
	}
}

// --- Benchmarks -----------------------------------------------------------

// BenchmarkHistogramObserve is the acceptance gate for the hot-path
// claim: recording must stay under 100 ns/op so per-request
// instrumentation does not perturb the tail it measures.
func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-5)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := 1e-3
		for pb.Next() {
			h.Observe(v)
			v += 1e-6
			if v > 10e-3 {
				v = 1e-3
			}
		}
	})
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkSnapshotQuantile(b *testing.B) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.ExpFloat64() * 1e-3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := h.Snapshot()
		_ = s.Quantile(0.95)
	}
}

// BucketWidthAt returns the bucket width (seconds) at value v — the
// quantile resolution in v's neighborhood. Accuracy tests use it as the
// tolerance for histogram-vs-exact comparisons.
func BucketWidthAt(v float64) float64 {
	if !(v > 0) {
		v = 0
	}
	lo, hi := bucketBounds(bucketIndex(uint64(v * unitScale)))
	return float64(hi-lo) / unitScale
}
