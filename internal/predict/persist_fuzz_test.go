package predict

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"retail/internal/cpu"
	"retail/internal/workload"
)

// FuzzLoadLinear holds the model loader — the file a deployment restarts
// from — to its contract on arbitrary bytes: it never panics; an accepted
// model predicts at every level, and beyond both ends, on in-range and
// out-of-range features without panicking; and Save → Load → Save
// reproduces the same bytes. Seeds: a fitted model with categorical and
// numerical features, and the cell-count overflow and non-positive
// category counts LoadLinear must reject.
func FuzzLoadLinear(f *testing.F) {
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	m, err := FitLinear(fillSet(app, grid, 50, 3), FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0, 1, 3}}, grid.Levels())
	if err != nil {
		f.Fatal(err)
	}
	var fitted bytes.Buffer
	if err := m.Save(&fitted); err != nil {
		f.Fatal(err)
	}
	f.Add(fitted.Bytes())
	f.Add([]byte(overflowingModel))
	f.Add([]byte(strings.ReplaceAll(overflowingModel, "4294967296", "0")))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadLinear(bytes.NewReader(data))
		if err != nil {
			return
		}
		for _, v := range []float64{0, 1, -1, 1e300, -1e300, math.NaN()} {
			features := make([]float64, len(m.layout.Specs))
			for j, s := range m.layout.Specs {
				features[j] = v
				if s.Kind == workload.Categorical && v == 1 {
					features[j] = float64(s.Categories - 1)
				}
			}
			for lvl := -1; lvl <= m.levels; lvl++ {
				m.Predict(cpu.Level(lvl), features)
			}
		}
		var first, second bytes.Buffer
		if err := m.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		back, err := LoadLinear(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model rejected: %v", err)
		}
		if err := back.Save(&second); err != nil {
			t.Fatalf("reloaded model does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save → Load → Save changed the bytes:\n%s\n%s", first.Bytes(), second.Bytes())
		}
	})
}
