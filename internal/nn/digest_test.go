package nn_test

import (
	"testing"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/workload"
)

// The network every Gemini number in the paper comparison rests on — the
// published 5×128 shape fitted to the seed-1 Xapian calibration, built as
// core.Calibration.GeminiModel builds it — must come out of training with
// exactly the weights the per-sample trainer produced. The digest was taken
// at the last commit that trained that way.
func TestPublishedGeminiWeightsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the published network in full")
	}
	app := workload.ByName("xapian")
	cal, err := core.Calibrate(app, core.DefaultPlatform(), 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []int
	for j, s := range app.FeatureSpecs() {
		if s.RequestFeature() {
			inputs = append(inputs, j)
		}
	}
	var xs [][]float64
	var ys []float64
	for _, s := range cal.Training.At(cal.Platform.Grid.MaxLevel()) {
		row := make([]float64, len(inputs))
		for a, j := range inputs {
			row[a] = s.Features[j]
		}
		xs, ys = append(xs, row), append(ys, s.Service)
	}
	n, err := nn.New(nn.GeminiConfig(len(inputs)))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	const want = "5bf50ee7ef2632098c39ac69fe0e129e2ad091b7394cf1755d9528917b1889a2"
	if got := n.WeightsSHA256(); got != want {
		t.Fatalf("trained weights digest %s, want %s", got, want)
	}
}
