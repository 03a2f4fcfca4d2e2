package policy

import (
	"math"
	"testing"

	"retail/internal/cpu"
)

// TestQuantileFallback pins the shared out-of-range→0.75 fallback for
// the profile-driven estimators (RubikTail and EETLThreshold). The
// boundary values 0 and 1 are excluded — a closed-interval quantile
// would index past the ends of the sorted profile — and NaN, which
// fails every comparison, must fall back rather than leak into the
// percentile interpolation.
func TestQuantileFallback(t *testing.T) {
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"zero", 0, 0.75},
		{"one", 1, 0.75},
		{"nan", math.NaN(), 0.75},
		{"negative", -0.5, 0.75},
		{"above-one", 1.5, 0.75},
		{"in-range", 0.999, 0.999},
		{"paper-default", 0.75, 0.75},
	}
	profile := []float64{1, 2, 3, 4}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := clampQuantile(tc.q); got != tc.want {
				t.Fatalf("clampQuantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
			rt := NewRubikTail(profile, tc.q)
			if rt.quantile != tc.want {
				t.Fatalf("NewRubikTail quantile = %v, want %v", rt.quantile, tc.want)
			}
			if tail := rt.Tail(2, 1); math.IsNaN(tail) || tail <= 0 {
				t.Fatalf("Tail with quantile %v = %v, want finite positive", tc.q, tail)
			}
			thr := EETLThreshold(profile, tc.q, 2, 1)
			if math.IsNaN(thr) || thr <= 0 {
				t.Fatalf("EETLThreshold with quantile %v = %v, want finite positive", tc.q, thr)
			}
		})
	}
}

// TestGeminiShedsPredictedMisses: Gemini sheds predicted misses at
// arrival unless Params.Gemini.KeepOnPredictedMiss turns it off.
func TestGeminiShedsPredictedMisses(t *testing.T) {
	for _, keep := range []bool{false, true} {
		pol, err := New("gemini", Params{Gemini: GeminiParams{KeepOnPredictedMiss: keep}}, Env{Grid: cpu.DefaultGrid(), QoS: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if got := pol.(*Gemini).ShedsPredictedMisses(); got == keep {
			t.Errorf("KeepOnPredictedMiss %v: ShedsPredictedMisses = %v", keep, got)
		}
	}
}
