package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Fatalf("Mean = %v, want 5", m)
	}
	if Mean(nil) != 0 {
		t.Fatal("empty-slice mean should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPearsonPerfectLinear(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{10, 20, 30, 40, 50}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, want 1", r)
	}
	neg := []float64{50, 40, 30, 20, 10}
	r, _ = Pearson(xs, neg)
	if !almost(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	r, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil || r != 0 {
		t.Fatalf("constant series Pearson = %v, %v; want 0, nil", r, err)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch not detected")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err != ErrTooFewSamples {
		t.Fatalf("got %v, want ErrTooFewSamples", err)
	}
}

func TestPearsonIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 20000
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r) > 0.05 {
		t.Fatalf("independent Pearson = %v, want ~0", r)
	}
}

func TestCorrelationRatioPerfect(t *testing.T) {
	// Outcome fully determined by category → η² = 1.
	cats := []int{0, 0, 1, 1, 2, 2}
	ys := []float64{5, 5, 9, 9, 1, 1}
	eta, err := CorrelationRatio(cats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eta, 1, 1e-12) {
		t.Fatalf("η² = %v, want 1", eta)
	}
}

func TestCorrelationRatioNone(t *testing.T) {
	// Same within-category distribution regardless of category → η² = 0.
	cats := []int{0, 0, 1, 1}
	ys := []float64{1, 3, 1, 3}
	eta, err := CorrelationRatio(cats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eta, 0, 1e-12) {
		t.Fatalf("η² = %v, want 0", eta)
	}
}

func TestCorrelationRatioConstantOutcome(t *testing.T) {
	eta, err := CorrelationRatio([]int{0, 1, 0, 1}, []float64{4, 4, 4, 4})
	if err != nil || eta != 0 {
		t.Fatalf("constant outcome η² = %v, %v; want 0, nil", eta, err)
	}
}

func TestCorrelationRatioKnownValue(t *testing.T) {
	// Classic worked example (algebra/geometry/statistics scores): the
	// published correlation ratio is η ≈ 0.7455, so η² ≈ 0.5557.
	cats := []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2}
	ys := []float64{45, 70, 29, 15, 21, 40, 20, 30, 42, 65, 95}
	eta, err := CorrelationRatio(cats, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eta, 0.7455*0.7455, 2e-3) {
		t.Fatalf("η² = %v, want ≈0.5557", eta)
	}
}

func TestEtaSquaredMatchesPearsonWhenLinear(t *testing.T) {
	// Paper §IV-B: η² ≈ |ρ|² when the relationship is linear and
	// categories are the x values themselves.
	xs := []float64{1, 1, 2, 2, 3, 3, 4, 4}
	ys := []float64{2, 2, 4, 4, 6, 6, 8, 8}
	cats := make([]int, len(xs))
	for i, x := range xs {
		cats[i] = int(x)
	}
	eta, _ := CorrelationRatio(cats, ys)
	rho, _ := Pearson(xs, ys)
	if !almost(eta, rho*rho, 1e-12) {
		t.Fatalf("η² = %v, ρ² = %v; want equal for perfectly linear data", eta, rho*rho)
	}
}

func TestR2(t *testing.T) {
	obs := []float64{1, 2, 3, 4}
	if r2, _ := R2(obs, obs); !almost(r2, 1, 1e-12) {
		t.Fatalf("perfect R² = %v", r2)
	}
	mean := []float64{2.5, 2.5, 2.5, 2.5}
	if r2, _ := R2(obs, mean); !almost(r2, 0, 1e-12) {
		t.Fatalf("mean-predictor R² = %v, want 0", r2)
	}
	bad := []float64{4, 3, 2, 1}
	if r2, _ := R2(obs, bad); r2 >= 0 {
		t.Fatalf("anti-predictor R² = %v, want negative", r2)
	}
	if r2, _ := R2([]float64{5, 5}, []float64{5, 5}); r2 != 1 {
		t.Fatalf("constant-exact R² = %v, want 1", r2)
	}
}

func TestRMSE(t *testing.T) {
	obs := []float64{1, 2, 3}
	pred := []float64{2, 2, 2}
	got, err := RMSE(obs, pred)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Sqrt(2.0 / 3.0)
	if !almost(got, want, 1e-12) {
		t.Fatalf("RMSE = %v, want %v", got, want)
	}
	if _, err := RMSE(nil, nil); err != ErrTooFewSamples {
		t.Fatalf("empty RMSE error = %v", err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if p := Percentile(xs, 0); p != 15 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(xs, 100); p != 50 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(xs, 50); p != 35 {
		t.Fatalf("p50 = %v, want 35", p)
	}
	if p := Percentile(xs, 25); p != 20 {
		t.Fatalf("p25 = %v, want 20", p)
	}
	// Interpolated value.
	if p := Percentile([]float64{0, 10}, 50); p != 5 {
		t.Fatalf("interpolated p50 = %v, want 5", p)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input mutated: %v", xs)
	}
}

func TestCDF(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	pts := CDF(xs, 0)
	if len(pts) != 4 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Value != 1 || pts[0].Fraction != 0.25 {
		t.Fatalf("first point %+v", pts[0])
	}
	if pts[3].Value != 4 || pts[3].Fraction != 1 {
		t.Fatalf("last point %+v", pts[3])
	}
	// Downsampled CDF keeps the extremes.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	pts = CDF(big, 10)
	if len(pts) != 10 {
		t.Fatalf("downsampled len = %d", len(pts))
	}
	if pts[0].Value != 0 || pts[9].Value != 999 {
		t.Fatalf("extremes lost: %+v %+v", pts[0], pts[9])
	}
	if CDF(nil, 5) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

// Property: Pearson is symmetric and bounded in [-1, 1].
func TestPearsonProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
			ys[i] = rng.NormFloat64()*2 + xs[i]*0.5
		}
		a, err1 := Pearson(xs, ys)
		b, err2 := Pearson(ys, xs)
		if err1 != nil || err2 != nil {
			return false
		}
		return almost(a, b, 1e-9) && a >= -1-1e-9 && a <= 1+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Pearson is invariant under positive affine transforms of either
// input.
func TestPearsonAffineInvariance(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
			ys[i] = 3*xs[i] + rng.NormFloat64()
		}
		a, _ := Pearson(xs, ys)
		scaled := make([]float64, n)
		for i := range xs {
			scaled[i] = 7*xs[i] + 11
		}
		b, _ := Pearson(scaled, ys)
		return almost(a, b, 1e-9)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: η² stays within [0,1] for arbitrary category assignments.
// TestCorrelationRatioBitStable: one input gives one η² bit pattern on
// every call, whatever order Go's map iteration would visit its
// categories in. §IV scores Shore's and Silo's tx_type with it, and a
// near-tie in the stepwise selector must not resolve differently in two
// runs of one seed.
func TestCorrelationRatioBitStable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cats := make([]int, 400)
	ys := make([]float64, len(cats))
	for i := range cats {
		cats[i] = rng.Intn(20)
		ys[i] = float64(cats[i]%7)*1e-3 + rng.ExpFloat64()*1e-3
	}
	first, err := CorrelationRatio(cats, ys)
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 1000; call++ {
		eta, err := CorrelationRatio(cats, ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(eta) != math.Float64bits(first) {
			t.Fatalf("call %d: η² = %v (bits %#x), first call %v (bits %#x)",
				call, eta, math.Float64bits(eta), first, math.Float64bits(first))
		}
	}
}

func TestCorrelationRatioBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		cats := make([]int, n)
		ys := make([]float64, n)
		for i := range cats {
			cats[i] = rng.Intn(5)
			ys[i] = rng.NormFloat64() * 100
		}
		eta, err := CorrelationRatio(cats, ys)
		return err == nil && eta >= 0 && eta <= 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPercentileMonotone(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(100)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 50
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}
