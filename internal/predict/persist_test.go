package predict

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"retail/internal/cpu"
	"retail/internal/workload"
)

func TestLinearModelSaveLoadRoundTrip(t *testing.T) {
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 600, 21)
	layout := FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0, 1, 3}}
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadLinear(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Predictions must be identical across 200 random inputs and all
	// levels.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		r := app.Generate(rng)
		lvl := cpu.Level(rng.Intn(grid.Levels()))
		a, b := m.Predict(lvl, r.Features), loaded.Predict(lvl, r.Features)
		if a != b {
			t.Fatalf("prediction diverged after reload: %v vs %v", a, b)
		}
	}
}

func TestLoadLinearRejectsCorruptModels(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 200, 22)
	layout := FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{1}}
	m, _ := FitLinear(set, layout, grid.Levels())
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	cases := map[string]string{
		"garbage":       "not json",
		"wrong version": strings.Replace(good, `"version":1`, `"version":9`, 1),
		"zero levels":   strings.Replace(good, `"levels":12`, `"levels":0`, 1),
		"bad selected":  strings.Replace(good, `"selected":[1]`, `"selected":[99]`, 1),
		"cell mismatch": strings.Replace(good, `"levels":12`, `"levels":7`, 1),
	}
	for name, body := range cases {
		if _, err := LoadLinear(strings.NewReader(body)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := LoadLinear(strings.NewReader(good)); err != nil {
		t.Fatalf("pristine model rejected: %v", err)
	}
}

func TestProportionalWrapper(t *testing.T) {
	app := workload.NewMasstree()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 300, 31)
	m, err := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProportional(m, grid, grid.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rand.New(rand.NewSource(32)))
	ref := m.Predict(grid.MaxLevel(), r.Features)
	// At the reference level the wrapper matches the base model.
	if got := p.Predict(grid.MaxLevel(), r.Features); got != ref {
		t.Fatalf("reference-level prediction %v vs %v", got, ref)
	}
	// At the grid floor it scales exactly ∝ 1/f — which OVERestimates the
	// memory-bound truth, the Rubik/Gemini flaw the ablation quantifies.
	atMin := p.Predict(0, r.Features)
	if atMin != ref*2.1 {
		t.Fatalf("proportional scaling broken: %v vs %v×2.1", atMin, ref)
	}
	truth := float64(r.ServiceAt(grid.MinFreq(), grid.MaxFreq(), 1))
	if atMin <= truth {
		t.Fatalf("proportional estimate %v should exceed memory-bound truth %v", atMin, truth)
	}
	if _, err := NewProportional(nil, grid, 0); err == nil {
		t.Fatal("nil base accepted")
	}
}

// overflowingModel has two categorical features of 2³² categories each, so
// Combos()·Levels wraps to 0 and its empty cell arrays once passed the size
// check; Predict then indexed them far out of range.
const overflowingModel = `{"version":1,"specs":[{"Name":"a","Kind":1,"Categories":4294967296,"Lateness":0},` +
	`{"Name":"b","Kind":1,"Categories":4294967296,"Lateness":0}],"selected":[0,1],"levels":1,` +
	`"coef":[],"cell_mean":[],"cell_ok":[],"level_mean":[0],"level_ok":[false],"global_mean":0}`

func TestLoadLinearRejectsOverflowingCellCount(t *testing.T) {
	if _, err := LoadLinear(strings.NewReader(overflowingModel)); err == nil {
		t.Fatal("a model whose cell count overflows was accepted")
	}
	for _, n := range []string{"0", "-1"} {
		body := strings.ReplaceAll(overflowingModel, "4294967296", n)
		if _, err := LoadLinear(strings.NewReader(body)); err == nil {
			t.Errorf("categorical specs with %s categories accepted", n)
		}
	}
}
