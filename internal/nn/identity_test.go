package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// identityData draws a small regression problem; variant picks the edge the
// trainer must survive bit-for-bit.
func identityData(variant string, batch int) (xs [][]float64, ys []float64) {
	n := 3*batch + 5 // batch ∤ N: a short last batch, not a multiple of 4
	switch variant {
	case "N<batch":
		n = batch - 3
	case "batch|N":
		n = 4 * batch
	}
	rng := rand.New(rand.NewSource(int64(31 + n)))
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*6, rng.NormFloat64()
		if variant == "const-feature" {
			a = 3
		}
		y := 0.4 + 1.7*a - 0.3*b*b + rng.NormFloat64()*0.05
		if variant == "const-target" {
			y = 7
		}
		xs, ys = append(xs, []float64{a, b}), append(ys, y)
	}
	return xs, ys
}

// sameBits fails the test when two float slices differ in any bit.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %x (%v), reference %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// TestFitBitIdenticalToReference is the trainer's contract: every weight,
// bias and Adam moment, the standardization statistics and the predictions
// equal the per-sample reference loop's bit for bit, whatever the shape,
// the batch remainder or the number of goroutines sharing the work.
func TestFitBitIdenticalToReference(t *testing.T) {
	shapes := []Config{
		{HiddenLayers: 0, Epochs: 6, BatchSize: 16},
		{HiddenLayers: 1, Neurons: 16, Epochs: 6, BatchSize: 16},
		{HiddenLayers: 2, Neurons: 16, Epochs: 6, BatchSize: 32},
		// Wide enough for every phase to clear minHandoffMACs, so the
		// goroutine hand-off itself is under test.
		{HiddenLayers: 5, Neurons: 128, Epochs: 3, BatchSize: 32},
	}
	variants := []string{"N<batch", "batch∤N", "batch|N", "const-feature", "const-target"}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, cfg := range shapes {
		cfg.InputDim, cfg.Seed = 2, 5
		if testing.Short() && cfg.Neurons > 16 {
			continue
		}
		for _, variant := range variants {
			xs, ys := identityData(variant, cfg.BatchSize)
			ref, _ := New(cfg)
			if err := ref.refFit(xs, ys); err != nil {
				t.Fatal(err)
			}
			probe := rand.New(rand.NewSource(77))
			for _, procs := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%dx%d/%s/procs=%d", cfg.HiddenLayers, cfg.Neurons, variant, procs), func(t *testing.T) {
					runtime.GOMAXPROCS(procs)
					n, _ := New(cfg)
					if err := n.Fit(xs, ys); err != nil {
						t.Fatal(err)
					}
					for li, l := range n.layers {
						r := ref.layers[li]
						for _, p := range []struct {
							name      string
							got, want []float64
						}{{"w", l.w, r.w}, {"b", l.b, r.b}, {"mw", l.mw, r.mw}, {"vw", l.vw, r.vw}, {"mb", l.mb, r.mb}, {"vb", l.vb, r.vb}} {
							sameBits(t, fmt.Sprintf("layer %d %s", li, p.name), p.got, p.want)
						}
					}
					sameBits(t, "inMean", n.inMean, ref.inMean)
					sameBits(t, "inStd", n.inStd, ref.inStd)
					sameBits(t, "out mean/std", []float64{n.outMean, n.outStd}, []float64{ref.outMean, ref.outStd})
					var s Scratch
					got, want := make([]float64, 200), make([]float64, 200)
					for i := range got {
						x := []float64{probe.Float64()*8 - 1, probe.NormFloat64() * 2}
						got[i], want[i] = n.MustPredict(&s, x), ref.refPredict(x)
					}
					sameBits(t, "prediction", got, want)
				})
			}
		}
	}
}

func TestNNPredictZeroAlloc(t *testing.T) {
	xs, ys := identityData("batch|N", 32)
	cfg := GeminiConfig(2)
	cfg.Epochs = 1
	n, _ := New(cfg)
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	var s Scratch
	n.MustPredict(&s, xs[0]) // sizes the scratch
	if a := testing.AllocsPerRun(100, func() { n.MustPredict(&s, xs[1]) }); a != 0 {
		t.Fatalf("Predict with a warm Scratch allocates %v times per call, want 0", a)
	}
}
