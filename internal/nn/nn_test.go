package nn

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"retail/internal/linalg"
	"retail/internal/stats"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{InputDim: 0}); err == nil {
		t.Fatal("zero input dim accepted")
	}
	if _, err := New(Config{InputDim: 2, HiddenLayers: 2, Neurons: 0}); err == nil {
		t.Fatal("zero neurons with hidden layers accepted")
	}
	n, err := New(Config{InputDim: 3, HiddenLayers: 2, Neurons: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Defaults applied.
	cfg := n.Config()
	if cfg.Epochs <= 0 || cfg.BatchSize <= 0 || cfg.LearningRate <= 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

func TestParamCount(t *testing.T) {
	n, _ := New(Config{InputDim: 2, HiddenLayers: 1, Neurons: 4})
	// layer1: 2×4 + 4 = 12; output: 4×1 + 1 = 5.
	if got := n.ParamCount(); got != 17 {
		t.Fatalf("ParamCount = %d, want 17", got)
	}
}

func TestPredictBeforeFit(t *testing.T) {
	n, _ := New(Config{InputDim: 1, HiddenLayers: 1, Neurons: 4})
	if _, err := n.Predict(&Scratch{}, []float64{1}); err == nil {
		t.Fatal("predict before fit accepted")
	}
}

func TestFitValidation(t *testing.T) {
	n, _ := New(Config{InputDim: 2, HiddenLayers: 1, Neurons: 4})
	if err := n.Fit(nil, nil); err == nil {
		t.Fatal("empty training set accepted")
	}
	if err := n.Fit([][]float64{{1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := n.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("wrong feature width accepted")
	}
}

func TestPredictDimensionCheck(t *testing.T) {
	n, _ := New(Config{InputDim: 2, HiddenLayers: 1, Neurons: 4, Epochs: 1})
	if err := n.Fit([][]float64{{1, 2}, {2, 3}, {3, 4}}, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Predict(&Scratch{}, []float64{1}); err == nil {
		t.Fatal("wrong-width predict accepted")
	}
}

func TestLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 600; i++ {
		x := rng.Float64() * 10
		xs = append(xs, []float64{x})
		ys = append(ys, 3*x+2)
	}
	n, _ := New(Config{InputDim: 1, HiddenLayers: 1, Neurons: 16, Epochs: 120, BatchSize: 32, Seed: 1})
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(xs))
	for i := range xs {
		preds[i] = n.MustPredict(&Scratch{}, xs[i])
	}
	r2, _ := stats.R2(ys, preds)
	if r2 < 0.99 {
		t.Fatalf("R² = %v on a linear target, want > 0.99", r2)
	}
	if n.TrainDuration <= 0 {
		t.Fatal("TrainDuration not recorded")
	}
}

func TestLearnsConcaveFunction(t *testing.T) {
	// Xapian-like target: a + b·d + c·d·log(d). LR can't capture the curve
	// exactly; the NN should.
	rng := rand.New(rand.NewSource(6))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 800; i++ {
		d := rng.Float64() * 600
		xs = append(xs, []float64{d})
		ys = append(ys, 0.7+0.006*d+0.00058*d*math.Log1p(d))
	}
	n, _ := New(Config{InputDim: 1, HiddenLayers: 2, Neurons: 24, Epochs: 150, BatchSize: 32, Seed: 2})
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(xs))
	for i := range xs {
		preds[i] = n.MustPredict(&Scratch{}, xs[i])
	}
	r2, _ := stats.R2(ys, preds)
	if r2 < 0.995 {
		t.Fatalf("R² = %v on noiseless concave target", r2)
	}
}

func TestMultiFeatureRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var xs [][]float64
	var ys []float64
	for i := 0; i < 700; i++ {
		a, b := rng.Float64()*5, rng.Float64()*3
		xs = append(xs, []float64{a, b})
		ys = append(ys, 2*a-b+1+rng.NormFloat64()*0.05)
	}
	n, _ := New(Config{InputDim: 2, HiddenLayers: 1, Neurons: 16, Epochs: 100, BatchSize: 32, Seed: 3})
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	preds := make([]float64, len(xs))
	for i := range xs {
		preds[i] = n.MustPredict(&Scratch{}, xs[i])
	}
	r2, _ := stats.R2(ys, preds)
	if r2 < 0.98 {
		t.Fatalf("R² = %v", r2)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	mk := func() float64 {
		rng := rand.New(rand.NewSource(9))
		var xs [][]float64
		var ys []float64
		for i := 0; i < 100; i++ {
			x := rng.Float64()
			xs = append(xs, []float64{x})
			ys = append(ys, x*x)
		}
		n, _ := New(Config{InputDim: 1, HiddenLayers: 1, Neurons: 8, Epochs: 20, BatchSize: 16, Seed: 42})
		if err := n.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		return n.MustPredict(&Scratch{}, []float64{0.5})
	}
	if a, b := mk(), mk(); a != b {
		t.Fatalf("same seed gave different predictions: %v vs %v", a, b)
	}
}

func TestConstantTargetDoesNotDivergence(t *testing.T) {
	xs := make([][]float64, 50)
	ys := make([]float64, 50)
	for i := range xs {
		xs[i] = []float64{float64(i)}
		ys[i] = 7
	}
	n, _ := New(Config{InputDim: 1, HiddenLayers: 1, Neurons: 4, Epochs: 30, BatchSize: 8, Seed: 1})
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	got := n.MustPredict(&Scratch{}, []float64{25})
	if math.IsNaN(got) || math.Abs(got-7) > 0.5 {
		t.Fatalf("constant target predicted %v, want ≈7", got)
	}
}

func TestConstantFeatureColumnHandled(t *testing.T) {
	// Zero-variance feature must not produce NaNs via standardization.
	xs := make([][]float64, 60)
	ys := make([]float64, 60)
	rng := rand.New(rand.NewSource(11))
	for i := range xs {
		v := rng.Float64()
		xs[i] = []float64{3, v} // first column constant
		ys[i] = 2 * v
	}
	n, _ := New(Config{InputDim: 2, HiddenLayers: 1, Neurons: 8, Epochs: 60, BatchSize: 16, Seed: 1})
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	got := n.MustPredict(&Scratch{}, []float64{3, 0.5})
	if math.IsNaN(got) {
		t.Fatal("NaN prediction with constant feature column")
	}
	if math.Abs(got-1) > 0.3 {
		t.Fatalf("predicted %v, want ≈1", got)
	}
}

func TestGeminiConfigShape(t *testing.T) {
	cfg := GeminiConfig(4)
	if cfg.HiddenLayers != 5 || cfg.Neurons != 128 {
		t.Fatalf("Gemini config = %+v, want 5×128", cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4→128, 128→128 ×4, 128→1.
	want := (4*128 + 128) + 4*(128*128+128) + (128 + 1)
	if n.ParamCount() != want {
		t.Fatalf("params = %d, want %d", n.ParamCount(), want)
	}
}

func TestTunedSmallerThanGemini(t *testing.T) {
	g, _ := New(GeminiConfig(1))
	tuned, _ := New(TunedConfig(1, 1, 16, 50, 32))
	if tuned.ParamCount() >= g.ParamCount() {
		t.Fatal("tuned model should be much smaller than Gemini's")
	}
}

// The paper's headline overhead claim: NN training is orders of magnitude
// slower than linear regression (Table IV shows ≥300×). Training the
// Gemini-size net on 1000 samples must take at least 1000× an OLS fit of the
// same data — on this implementation the ratio is near 10⁵, so the bound
// holds under -race and on a loaded host, yet fails if either side's cost
// stops being measured.
func TestTrainingOverheadGap(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead comparison is slow")
	}
	rng := rand.New(rand.NewSource(13))
	nSamples := 1000
	xs := make([][]float64, nSamples)
	ys := make([]float64, nSamples)
	for i := range xs {
		x := rng.Float64() * 100
		xs[i] = []float64{x}
		ys[i] = 0.5*x + 3
	}
	n, _ := New(GeminiConfig(1))
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	// OLS takes microseconds: the fastest of a few fits is the one a
	// scheduler hiccup did not inflate.
	var ols time.Duration
	for i := 0; i < 7; i++ {
		start := time.Now()
		design, err := linalg.DesignMatrix(xs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := linalg.OLS(design, ys); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(start); i == 0 || d < ols {
			ols = d
		}
	}
	if ratio := float64(n.TrainDuration) / float64(ols); ratio < 1000 {
		t.Fatalf("NN training %v is only %.0f× the OLS fit's %v, want ≥ 1000×", n.TrainDuration, ratio, ols)
	} else {
		t.Logf("NN training %v = %.0f× OLS %v", n.TrainDuration, ratio, ols)
	}
}

// benchData is a noisy one-feature line, the shape of a request-feature
// calibration.
func benchData(n int) (xs [][]float64, ys []float64) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		xs, ys = append(xs, []float64{x}), append(ys, 0.5*x+3+rng.NormFloat64())
	}
	return xs, ys
}

// BenchmarkNNFitGemini trains the published 5×128 shape on a
// calibration-sized set for two epochs (a thirtieth of a real fit).
func BenchmarkNNFitGemini(b *testing.B) {
	xs, ys := benchData(1000)
	cfg := GeminiConfig(1)
	cfg.Epochs = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, _ := New(cfg)
		if err := n.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func benchInference(b *testing.B, cfg Config) {
	xs, ys := benchData(200)
	cfg.Epochs = 2
	n, _ := New(cfg)
	if err := n.Fit(xs, ys); err != nil {
		b.Fatal(err)
	}
	var s Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.MustPredict(&s, xs[i%len(xs)])
	}
}

func BenchmarkInferenceGemini(b *testing.B) { benchInference(b, GeminiConfig(1)) }

func BenchmarkInferenceTuned(b *testing.B) { benchInference(b, TunedConfig(1, 1, 16, 2, 32)) }
