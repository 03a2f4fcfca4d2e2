package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	xs := make([]float64, 500)
	var r Running
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		r.Add(xs[i])
	}
	if !almost(r.Mean(), Mean(xs), 1e-9) {
		t.Fatalf("running mean %v vs batch %v", r.Mean(), Mean(xs))
	}
	if !almost(r.Variance(), Variance(xs), 1e-9) {
		t.Fatalf("running variance %v vs batch %v", r.Variance(), Variance(xs))
	}
	if r.Min() != Min(xs) || r.Max() != Max(xs) {
		t.Fatal("running min/max mismatch")
	}
	if r.N() != 500 {
		t.Fatalf("N = %d", r.N())
	}
}

func TestRunningReset(t *testing.T) {
	var r Running
	r.Add(5)
	r.Reset()
	if r.N() != 0 || r.Mean() != 0 || r.Variance() != 0 {
		t.Fatal("Reset did not clear state")
	}
}

func TestRunningSingleSample(t *testing.T) {
	var r Running
	r.Add(3)
	if r.Mean() != 3 || r.Variance() != 0 || r.Min() != 3 || r.Max() != 3 {
		t.Fatalf("single sample stats wrong: %+v", r)
	}
}

func TestLatencyTrackerWindow(t *testing.T) {
	tr := NewLatencyTracker(4, false)
	for i := 1; i <= 10; i++ {
		tr.Add(float64(i))
	}
	if tr.WindowCount() != 4 {
		t.Fatalf("window count = %d, want 4", tr.WindowCount())
	}
	// Window holds {7,8,9,10}; p0 is the oldest surviving sample.
	if v, ok := tr.WindowPercentile(0); !ok || v != 7 {
		t.Fatalf("window p0 = %v, %v", v, ok)
	}
	if v, ok := tr.WindowPercentile(100); !ok || v != 10 {
		t.Fatalf("window p100 = %v, %v", v, ok)
	}
	if tr.Count() != 10 {
		t.Fatalf("total count = %d", tr.Count())
	}
	tr.ResetWindow()
	if _, ok := tr.WindowPercentile(50); ok {
		t.Fatal("window not cleared")
	}
	if tr.Count() != 10 {
		t.Fatal("cumulative count lost on window reset")
	}
}

func TestLatencyTrackerKeepAll(t *testing.T) {
	tr := NewLatencyTracker(2, true)
	for i := 1; i <= 100; i++ {
		tr.Add(float64(i))
	}
	if v, ok := tr.Percentile(99); !ok || !almost(v, 99.01, 0.5) {
		t.Fatalf("p99 = %v, %v", v, ok)
	}
	all := tr.All()
	if len(all) != 100 {
		t.Fatalf("All() len = %d", len(all))
	}
	// Mutating the copy must not affect the tracker.
	all[0] = -1
	if v, _ := tr.Percentile(0); v != 1 {
		t.Fatal("All() returned aliased storage")
	}
	qs := tr.Quantiles(0.5, 0.99)
	if len(qs) != 2 || qs[0] < qs[1] == false && qs[0] > qs[1] {
		t.Fatalf("quantiles = %v", qs)
	}
	if !almost(qs[0], 50.5, 1) {
		t.Fatalf("median = %v", qs[0])
	}
}

func TestLatencyTrackerNoKeepAllFallsBack(t *testing.T) {
	tr := NewLatencyTracker(8, false)
	if tr.All() != nil {
		t.Fatal("All() should be nil without keepAll")
	}
	for i := 0; i < 8; i++ {
		tr.Add(float64(i))
	}
	if v, ok := tr.Percentile(100); !ok || v != 7 {
		t.Fatalf("fallback percentile = %v, %v", v, ok)
	}
	qs := tr.Quantiles(1.0)
	if qs[0] != 7 {
		t.Fatalf("window quantile = %v", qs[0])
	}
}

func TestLatencyTrackerEmptyQuantiles(t *testing.T) {
	tr := NewLatencyTracker(4, true)
	qs := tr.Quantiles(0.5, 0.9)
	if qs[0] != 0 || qs[1] != 0 {
		t.Fatalf("empty quantiles = %v", qs)
	}
	if _, ok := tr.Percentile(50); ok {
		t.Fatal("empty tracker should report no percentile")
	}
}

func TestLatencyTrackerDefaultWindow(t *testing.T) {
	tr := NewLatencyTracker(0, false)
	for i := 0; i < 5000; i++ {
		tr.Add(1)
	}
	if tr.WindowCount() != 4096 {
		t.Fatalf("default window cap = %d, want 4096", tr.WindowCount())
	}
}

// Property: Running variance is never negative, and mean stays within
// [min, max].
func TestRunningInvariants(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r Running
		count := int(n)%100 + 1
		for i := 0; i < count; i++ {
			r.Add(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6))))
		}
		return r.Variance() >= 0 && r.Mean() >= r.Min()-1e-9 && r.Mean() <= r.Max()+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// naiveWindow is the reference the ring is checked against: the last cap
// samples, in arrival order, in a plain slice.
type naiveWindow struct {
	cap int
	xs  []float64
}

func (w *naiveWindow) add(x float64) {
	w.xs = append(w.xs, x)
	if len(w.xs) > w.cap {
		w.xs = w.xs[1:]
	}
}

// checkRingAgainst compares every window reader of tr with the reference,
// bit for bit.
func checkRingAgainst(t *testing.T, tr *LatencyTracker, ref *naiveWindow, step int) {
	t.Helper()
	if tr.WindowCount() != len(ref.xs) {
		t.Fatalf("step %d: WindowCount = %d, reference holds %d", step, tr.WindowCount(), len(ref.xs))
	}
	for _, p := range []float64{0, 25, 50, 95, 99, 100} {
		got, ok := tr.WindowPercentile(p)
		if ok != (len(ref.xs) > 0) {
			t.Fatalf("step %d: WindowPercentile(%v) ok = %v with %d samples", step, p, ok, len(ref.xs))
		}
		if !ok {
			continue
		}
		if want := Percentile(ref.xs, p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("step %d: WindowPercentile(%v) = %v, reference %v", step, p, got, want)
		}
	}
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	got := tr.Quantiles(qs...)
	for i, q := range qs {
		want := 0.0
		if len(ref.xs) > 0 {
			want = Percentile(ref.xs, q*100)
		}
		if math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("step %d: Quantiles(%v) = %v, reference %v", step, q, got[i], want)
		}
	}
}

// Property: the ring-buffered window answers WindowCount, WindowPercentile
// and the non-keepAll Quantiles exactly as a slice of the last cap samples
// does, across wrap-arounds and resets.
func TestLatencyTrackerRingMatchesNaiveWindow(t *testing.T) {
	for _, capN := range []int{1, 2, 7, 4096} {
		rng := rand.New(rand.NewSource(int64(capN) * 977))
		tr := NewLatencyTracker(capN, false)
		ref := &naiveWindow{cap: capN}
		reset := func() {
			tr.ResetWindow()
			ref.xs = ref.xs[:0]
		}
		step := 0
		add := func(n int) {
			for i := 0; i < n; i++ {
				x := rng.ExpFloat64()
				tr.Add(x)
				ref.add(x)
				step++
				// Checking is O(cap); sample the big window, check every
				// step of the small ones.
				if capN <= 8 || step%509 == 0 {
					checkRingAgainst(t, tr, ref, step)
				}
			}
			checkRingAgainst(t, tr, ref, step)
		}
		// Reset while wrapped (head mid-ring), then refill past the cap.
		add(3*capN + capN/2 + 1)
		reset()
		checkRingAgainst(t, tr, ref, step)
		add(2*capN + 3)
		// Reset while partly filled, and twice in a row.
		reset()
		add(capN/2 + 1)
		reset()
		reset()
		checkRingAgainst(t, tr, ref, step)
		// Random interleaving over several more wrap-arounds.
		for round := 0; round < 12; round++ {
			add(rng.Intn(capN+capN/2) + 1)
			if rng.Intn(3) == 0 {
				reset()
				checkRingAgainst(t, tr, ref, step)
			}
		}
		if tr.Count() != step {
			t.Fatalf("cap %d: cumulative count %d after %d adds", capN, tr.Count(), step)
		}
	}
}

// benchTracker returns a tracker whose window is full, and whose keepAll
// buffer (when on) has room for n more samples, so the timed Adds are the
// steady state.
func benchTracker(keepAll bool, n int) *LatencyTracker {
	tr := NewLatencyTracker(0, keepAll)
	tr.ReserveAll(4096 + n)
	for i := 0; i < 4096; i++ {
		tr.Add(float64(i))
	}
	return tr
}

func TestLatencyTrackerAddZeroAlloc(t *testing.T) {
	for _, keepAll := range []bool{false, true} {
		const runs = 1000
		tr := benchTracker(keepAll, runs+1) // AllocsPerRun makes one warm-up call
		if a := testing.AllocsPerRun(runs, func() { tr.Add(0.001) }); a != 0 {
			t.Fatalf("keepAll=%v: Add allocates %v times per call on a full window", keepAll, a)
		}
	}
}

// BenchmarkLatencyTrackerAdd times one Add on a full 4096-sample window:
// the per-completion cost every simulated request pays once per tracker.
func BenchmarkLatencyTrackerAdd(b *testing.B) {
	for _, bc := range []struct {
		name    string
		keepAll bool
	}{{"window", false}, {"keepAll", true}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := benchTracker(bc.keepAll, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Add(0.001)
			}
		})
	}
}
