package features

import (
	"math"
	"math/rand"
	"testing"

	"retail/internal/workload"
)

// genDataset draws n samples from app at a "fixed frequency in isolation",
// as the paper's profiling step does.
func genDataset(app workload.App, n int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := Dataset{Specs: app.FeatureSpecs()}
	for i := 0; i < n; i++ {
		r := app.Generate(rng)
		d.X = append(d.X, r.Features)
		d.Service = append(d.Service, float64(r.ServiceBase))
	}
	return d
}

func names(specs []workload.FeatureSpec, idx []int) []string {
	out := make([]string, len(idx))
	for i, j := range idx {
		out[i] = specs[j].Name
	}
	return out
}

func hasName(specs []workload.FeatureSpec, idx []int, name string) bool {
	for _, j := range idx {
		if specs[j].Name == name {
			return true
		}
	}
	return false
}

func TestValidate(t *testing.T) {
	d := Dataset{}
	if err := d.Validate(); err == nil {
		t.Fatal("empty dataset accepted")
	}
	d = genDataset(workload.NewMoses(), 4, 1)
	if err := d.Validate(); err == nil {
		t.Fatal("tiny dataset accepted")
	}
	d = genDataset(workload.NewMoses(), 100, 1)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	d.Service = d.Service[:50]
	if err := d.Validate(); err == nil {
		t.Fatal("length mismatch accepted")
	}
	d = genDataset(workload.NewMoses(), 100, 1)
	d.X[3] = d.X[3][:1]
	if err := d.Validate(); err == nil {
		t.Fatal("ragged row accepted")
	}
}

func TestSelectErrorsOnBadDataset(t *testing.T) {
	if _, err := Select(Dataset{}, DefaultOptions()); err == nil {
		t.Fatal("Select accepted invalid dataset")
	}
}

// §III-D's four application categories, reproduced end to end.

func TestMosesSelectsWordCountOnly(t *testing.T) {
	app := workload.NewMoses()
	res, err := Select(genDataset(app, 1000, 2), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := app.FeatureSpecs()
	if !hasName(specs, res.Selected, "word_count") {
		t.Fatalf("word_count not selected; got %v", names(specs, res.Selected))
	}
	if hasName(specs, res.Selected, "phrase_chars") {
		t.Fatalf("decoy phrase_chars selected; got %v", names(specs, res.Selected))
	}
	if res.CombinedCD < 0.95 {
		t.Fatalf("combined CD = %v", res.CombinedCD)
	}
}

func TestSphinxSelectsFileSizeOnly(t *testing.T) {
	app := workload.NewSphinx()
	res, err := Select(genDataset(app, 1000, 3), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := app.FeatureSpecs()
	if !hasName(specs, res.Selected, "audio_mb") {
		t.Fatalf("audio_mb not selected; got %v", names(specs, res.Selected))
	}
	if hasName(specs, res.Selected, "path_len") {
		t.Fatal("decoy path_len selected")
	}
}

func TestXapianSelectsDocCountRejectsLateFeature(t *testing.T) {
	app := workload.NewXapian()
	res, err := Select(genDataset(app, 1000, 4), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	specs := app.FeatureSpecs()
	if !hasName(specs, res.Selected, "doc_count") {
		t.Fatalf("doc_count not selected; got %v", names(specs, res.Selected))
	}
	// sorted_bytes correlates perfectly but has lateness 0.85: must be
	// rejected with the lateness reason, and must never be scored.
	found := false
	for _, rej := range res.Rejected {
		if specs[rej.Index].Name == "sorted_bytes" {
			found = true
			if rej.Reason != RejectedLateness {
				t.Fatalf("sorted_bytes rejected for %q, want lateness", rej.Reason)
			}
			if !math.IsNaN(res.IndividualCD[rej.Index]) {
				t.Fatal("lateness-rejected feature was scored")
			}
		}
	}
	if !found {
		t.Fatal("sorted_bytes not in rejections")
	}
}

func TestOLTPSelectsTypeAndCounts(t *testing.T) {
	for _, mk := range []func() workload.App{workload.NewShore, workload.NewSilo} {
		app := mk()
		res, err := Select(genDataset(app, 4000, 5), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		specs := app.FeatureSpecs()
		if !hasName(specs, res.Selected, "tx_type") {
			t.Fatalf("%s: tx_type not selected; got %v", app.Name(), names(specs, res.Selected))
		}
		// The combinational apps need numerical features too: at least one
		// of item_count/distinct_items must join tx_type.
		if !hasName(specs, res.Selected, "item_count") && !hasName(specs, res.Selected, "distinct_items") {
			t.Fatalf("%s: no numerical feature joined tx_type; got %v (CD=%v)",
				app.Name(), names(specs, res.Selected), res.CombinedCD)
		}
		if res.CombinedCD < 0.9 {
			t.Fatalf("%s: combined CD = %v", app.Name(), res.CombinedCD)
		}
	}
}

func TestConstantAppsSelectNothing(t *testing.T) {
	for _, mk := range []func() workload.App{workload.NewMasstree, workload.NewImgDNN} {
		app := mk()
		res, err := Select(genDataset(app, 1000, 6), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Selected) != 0 {
			t.Fatalf("%s: selected %v for a constant-service app",
				app.Name(), names(app.FeatureSpecs(), res.Selected))
		}
		if res.CombinedCD != 0 {
			t.Fatalf("%s: combined CD = %v, want 0", app.Name(), res.CombinedCD)
		}
		// Every candidate rejected as weak.
		if len(res.Rejected) != len(app.FeatureSpecs()) {
			t.Fatalf("%s: rejected %d of %d", app.Name(), len(res.Rejected), len(app.FeatureSpecs()))
		}
	}
}

func TestRedundantFeatureNotSelectedTwice(t *testing.T) {
	// Two numerical features that are exact copies: combined CD cannot
	// improve by adding the duplicate, so only one is selected.
	rng := rand.New(rand.NewSource(7))
	specs := []workload.FeatureSpec{
		{Name: "a", Kind: workload.Numerical},
		{Name: "a_copy", Kind: workload.Numerical},
	}
	d := Dataset{Specs: specs}
	for i := 0; i < 500; i++ {
		x := rng.Float64() * 10
		d.X = append(d.X, []float64{x, x})
		d.Service = append(d.Service, 2*x+1+rng.NormFloat64()*0.1)
	}
	res, err := Select(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("selected %d features, want 1 (redundancy)", len(res.Selected))
	}
	// The duplicate is rejected for lack of gain.
	if len(res.Rejected) != 1 || res.Rejected[0].Reason != RejectedNoGain {
		t.Fatalf("rejections = %+v", res.Rejected)
	}
}

func TestTwoIndependentNumericalFeaturesBothSelected(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	specs := []workload.FeatureSpec{
		{Name: "a", Kind: workload.Numerical},
		{Name: "b", Kind: workload.Numerical},
	}
	d := Dataset{Specs: specs}
	for i := 0; i < 800; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		d.X = append(d.X, []float64{a, b})
		d.Service = append(d.Service, a+b+rng.NormFloat64()*0.2)
	}
	res, err := Select(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 2 {
		t.Fatalf("selected %v, want both features", res.Selected)
	}
	// Steps record increasing combined CD.
	if len(res.Steps) != 2 || res.Steps[1].CombinedCD <= res.Steps[0].CombinedCD {
		t.Fatalf("steps = %+v", res.Steps)
	}
}

func TestCombinedCDGeneralizesIndividual(t *testing.T) {
	// Single numerical feature: combined CD ≈ |ρ|. Single categorical:
	// combined CD ≈ η.
	app := workload.NewMoses()
	d := genDataset(app, 2000, 9)
	j := workload.FeatureIndex(app, "word_count")
	cd, err := individualCD(d, j)
	if err != nil {
		t.Fatal(err)
	}
	combined := CombinedCD(d, []int{j})
	if math.Abs(cd-combined) > 0.02 {
		t.Fatalf("|ρ| = %v vs combined R = %v", cd, combined)
	}
}

func TestCombinedCDRobustToTinyGroups(t *testing.T) {
	// A categorical feature with a category containing a single sample
	// must not break the group fit.
	specs := []workload.FeatureSpec{
		{Name: "c", Kind: workload.Categorical, Categories: 3},
		{Name: "x", Kind: workload.Numerical},
	}
	d := Dataset{Specs: specs}
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{0, rng.Float64()})
		d.Service = append(d.Service, d.X[i][1]*2)
	}
	d.X = append(d.X, []float64{2, 0.5}) // lone sample in category 2
	d.Service = append(d.Service, 9)
	cd := CombinedCD(d, []int{0, 1})
	if math.IsNaN(cd) || cd < 0 || cd > 1 {
		t.Fatalf("combined CD = %v", cd)
	}
}

func TestSelectionOrderIsByCD(t *testing.T) {
	// The first selected feature must be the one with the highest
	// individual CD.
	app := workload.NewShore()
	res, err := Select(genDataset(app, 4000, 12), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	best := res.Selected[0]
	for j, cd := range res.IndividualCD {
		if math.IsNaN(cd) {
			continue
		}
		if cd > res.IndividualCD[best]+1e-12 {
			t.Fatalf("feature %d has CD %v > first-selected %d's %v", j, cd, best, res.IndividualCD[best])
		}
	}
}

func TestLatenessThresholdAdjustable(t *testing.T) {
	// Raising the threshold above 0.85 lets Xapian's sorted_bytes through,
	// the "other purposes" knob the paper mentions.
	app := workload.NewXapian()
	opt := DefaultOptions()
	opt.LatenessThreshold = 0.9
	res, err := Select(genDataset(app, 1000, 13), opt)
	if err != nil {
		t.Fatal(err)
	}
	scored := 0
	for _, cd := range res.IndividualCD {
		if !math.IsNaN(cd) {
			scored++
		}
	}
	if scored != len(app.FeatureSpecs()) {
		t.Fatalf("scored %d of %d with relaxed threshold", scored, len(app.FeatureSpecs()))
	}
}
