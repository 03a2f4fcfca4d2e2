package core

import (
	"math"
	"sync"
	"testing"

	"retail/internal/manager"
	"retail/internal/nn"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

func testPlatform() Platform { return DefaultPlatform().WithWorkers(8) }

func calibrateOrDie(t *testing.T, name string) *Calibration {
	t.Helper()
	cal, err := Calibrate(workload.ByName(name), testPlatform(), 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	return cal
}

func TestCalibrateSelectsExpectedFeatures(t *testing.T) {
	want := map[string][]string{
		"moses":    {"word_count"},
		"sphinx":   {"audio_mb"},
		"xapian":   {"doc_count"},
		"masstree": {},
		"imgdnn":   {},
	}
	for name, feats := range want {
		cal := calibrateOrDie(t, name)
		specs := cal.App.FeatureSpecs()
		got := map[string]bool{}
		for _, j := range cal.Selection.Selected {
			got[specs[j].Name] = true
		}
		if len(got) != len(feats) {
			t.Errorf("%s: selected %v, want %v", name, got, feats)
			continue
		}
		for _, f := range feats {
			if !got[f] {
				t.Errorf("%s: missing feature %s", name, f)
			}
		}
	}
}

func TestCalibrateOLTPSelectsCombinational(t *testing.T) {
	for _, name := range []string{"shore", "silo"} {
		cal := calibrateOrDie(t, name)
		specs := cal.App.FeatureSpecs()
		names := map[string]bool{}
		for _, j := range cal.Selection.Selected {
			names[specs[j].Name] = true
		}
		if !names["tx_type"] {
			t.Errorf("%s: tx_type not selected: %v", name, names)
		}
		if !names["item_count"] && !names["distinct_items"] {
			t.Errorf("%s: no numerical feature selected: %v", name, names)
		}
	}
}

func TestCalibrateModelAccuracy(t *testing.T) {
	// The calibrated model's RMSE/QoS should land in the paper's Table IV
	// ballpark (a few percent).
	for _, name := range []string{"moses", "xapian", "sphinx", "shore"} {
		cal := calibrateOrDie(t, name)
		if cal.BaselineRMSEOverQoS <= 0 || cal.BaselineRMSEOverQoS > 0.10 {
			t.Errorf("%s: baseline RMSE/QoS = %v, want (0, 0.10]", name, cal.BaselineRMSEOverQoS)
		}
	}
}

func TestCalibrateProfileSize(t *testing.T) {
	cal := calibrateOrDie(t, "moses")
	if len(cal.ProfileAtMax) != 400 {
		t.Fatalf("profile size = %d, want 400 (one per max-level sample)", len(cal.ProfileAtMax))
	}
	if cal.Training.Total() != 400*12 {
		t.Fatalf("training total = %d, want 4800", cal.Training.Total())
	}
}

func TestStage1FracPerCategory(t *testing.T) {
	cal := calibrateOrDie(t, "shore")
	frac := cal.Stage1Frac()
	if frac == nil {
		t.Fatal("shore needs a stage-1 split")
	}
	mk := func(tx int, items, rollback, distinct float64) *workload.Request {
		return &workload.Request{Features: []float64{float64(tx), items, rollback, distinct}}
	}
	// PAYMENT and ORDER_STATUS never wait for application features.
	if got := frac(mk(workload.TxPayment, 0, 0, 0)); got != 0 {
		t.Fatalf("PAYMENT stage-1 frac = %v, want 0", got)
	}
	if got := frac(mk(workload.TxOrderStatus, 0, 0, 0)); got != 0 {
		t.Fatalf("ORDER_STATUS stage-1 frac = %v, want 0", got)
	}
	// NEW_ORDER waits for the rollback flag (lateness 0.08) only when
	// stepwise selection picked it up — at TPC-C's 1% rollback rate the
	// correlation-degree gain is usually below the redundancy threshold,
	// so 0 is equally valid.
	if got := frac(mk(workload.TxNewOrder, 10, 0, 0)); got != 0 && math.Abs(got-0.08) > 1e-12 {
		t.Fatalf("NEW_ORDER stage-1 frac = %v, want 0 or 0.08", got)
	}
	// STOCK_LEVEL needs the distinct-item count (lateness 0.30).
	if got := frac(mk(workload.TxStockLevel, 0, 0, 150)); math.Abs(got-0.30) > 1e-12 {
		t.Fatalf("STOCK_LEVEL stage-1 frac = %v, want 0.30", got)
	}
}

func TestStage1FracXapianGlobal(t *testing.T) {
	cal := calibrateOrDie(t, "xapian")
	frac := cal.Stage1Frac()
	if frac == nil {
		t.Fatal("xapian needs a stage-1 split")
	}
	r := &workload.Request{Features: []float64{10, 100, 9600}}
	if got := frac(r); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("xapian stage-1 frac = %v, want 0.05 (doc_count lateness)", got)
	}
}

func TestStage1FracNilForRequestFeatureApps(t *testing.T) {
	for _, name := range []string{"moses", "sphinx", "masstree", "imgdnn"} {
		cal := calibrateOrDie(t, name)
		if cal.Stage1Frac() != nil {
			t.Errorf("%s: unexpected stage-1 split for request-feature app", name)
		}
	}
}

func TestRunValidation(t *testing.T) {
	p := testPlatform()
	cal := calibrateOrDie(t, "imgdnn")
	if _, err := Run(RunConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := Run(RunConfig{App: cal.App, Platform: p, Manager: cal.NewMaxFreq()}); err == nil {
		t.Fatal("zero RPS accepted")
	}
}

func TestRunBasicAccounting(t *testing.T) {
	p := testPlatform()
	cal := calibrateOrDie(t, "imgdnn")
	res, err := Run(RunConfig{
		App: cal.App, Platform: p, Manager: cal.NewMaxFreq(),
		RPS: 1000, Warmup: 1, Duration: 4, Seed: 5, CollectSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 3500 || res.Completed > 4500 {
		t.Fatalf("completed = %d over 4s at 1000 RPS", res.Completed)
	}
	if res.AvgPowerW <= 0 || res.EnergyJ <= 0 {
		t.Fatalf("power accounting: %v W, %v J", res.AvgPowerW, res.EnergyJ)
	}
	if math.Abs(res.EnergyJ/res.AvgPowerW-4) > 1e-6 {
		t.Fatalf("energy %v J inconsistent with power %v W over 4s", res.EnergyJ, res.AvgPowerW)
	}
	if res.P50 <= 0 || res.P99 < res.P95 || res.P95 < res.P50 {
		t.Fatalf("percentiles disordered: %v %v %v", res.P50, res.P95, res.P99)
	}
	if !res.QoSMet {
		t.Fatal("max frequency at moderate load must meet QoS")
	}
	if len(res.Samples) != res.Completed {
		t.Fatalf("samples %d ≠ completed %d", len(res.Samples), res.Completed)
	}
	if res.DropRate() != 0 {
		t.Fatalf("drop rate = %v for MaxFreq", res.DropRate())
	}
}

func TestRunDeterministicWithSeed(t *testing.T) {
	p := testPlatform()
	cal := calibrateOrDie(t, "xapian")
	run := func() *Result {
		res, err := Run(RunConfig{
			App: cal.App, Platform: p, Manager: cal.NewRubik(),
			RPS: 800, Warmup: 1, Duration: 3, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.AvgPowerW != b.AvgPowerW || a.P99 != b.P99 || a.Completed != b.Completed {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestRunEvents(t *testing.T) {
	p := testPlatform()
	cal := calibrateOrDie(t, "imgdnn")
	fired := false
	_, err := Run(RunConfig{
		App: cal.App, Platform: p, Manager: cal.NewMaxFreq(),
		RPS: 500, Warmup: 0.5, Duration: 2, Seed: 3,
		Events: []TimedEvent{{At: 1, Do: func(e *sim.Engine, s *server.Server) { fired = true }}},
	})
	_ = err
	if !fired {
		t.Fatal("timed event did not fire")
	}
}

func TestCalibrateMaxLoadCachedAndSane(t *testing.T) {
	p := testPlatform()
	app := workload.ByName("imgdnn")
	a := CalibrateMaxLoad(app, p, 3)
	b := CalibrateMaxLoad(app, p, 99) // cached: seed ignored on second call
	if a != b {
		t.Fatalf("max load not memoized: %v vs %v", a, b)
	}
	util := a * workload.MeanServiceAtMax(app) / float64(p.Workers)
	if util < 0.3 || util > 0.82 {
		t.Fatalf("max-load utilization = %v, want the paper's 60–80%% band (≤0.82)", util)
	}
	// The default system must meet QoS at 100% load by construction.
	res, err := Run(RunConfig{
		App: app, Platform: p, Manager: manager.NewMaxFreq(),
		RPS: a, Warmup: 1, Duration: RecommendedDuration(app, a), Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoSMet {
		t.Fatalf("default system violates QoS at its own max load: p%g=%v target=%v",
			app.QoS().Percentile, res.TailAtQoSPct, res.QoSTarget)
	}
}

func TestRecommendedDuration(t *testing.T) {
	sphinx := workload.ByName("sphinx")
	fast := workload.ByName("silo")
	if d := RecommendedDuration(fast, 30000); d != 5 {
		t.Fatalf("fast-app duration = %v, want clamp at 5s", d)
	}
	if d := RecommendedDuration(sphinx, 10); d < 60 {
		t.Fatalf("sphinx duration = %v, want long window", d)
	}
	if d := RecommendedDuration(sphinx, 0.001); d != 600 {
		t.Fatalf("duration cap = %v, want 600", d)
	}
}

func TestNewGeminiAndAdrenalineConstruction(t *testing.T) {
	cal := calibrateOrDie(t, "moses")
	cfg := nn.TunedConfig(1, 1, 8, 10, 32)
	g, err := cal.NewGemini(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "gemini" {
		t.Fatal("gemini name")
	}
	a := cal.NewAdrenaline()
	if a.Name() != "adrenaline" {
		t.Fatal("adrenaline name")
	}
	// Moses' best request feature is word_count (index 1).
	if a.FeatureIdx != workload.FeatureIndex(cal.App, "word_count") {
		t.Fatalf("adrenaline classifies on feature %d", a.FeatureIdx)
	}
	if cal.NewPegasus().Name() != "pegasus" || cal.NewMaxFreq().Name() != "maxfreq" || cal.NewRubik().Name() != "rubik" {
		t.Fatal("factory names")
	}
}

// Parallel sweep cells ask one shared calibration for Gemini's network at the
// same moment: all of them must get the one model the first asker trained
// (each racing caller used to train and return its own), later
// configurations must not retrain it, and a failed fit must stay failed.
func TestGeminiModelTrainsOnceUnderConcurrency(t *testing.T) {
	cal := calibrateOrDie(t, "xapian")
	cfg := nn.TunedConfig(1, 1, 8, 5, 32)
	models := make([]*predict.NNModel, 8)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, err := cal.GeminiModel(&cfg)
			if err != nil {
				t.Error(err)
			}
			models[i] = m
		}()
	}
	wg.Wait()
	for i, m := range models {
		if m == nil || m != models[0] {
			t.Fatalf("caller %d got model %p, caller 0 got %p: trained more than once", i, m, models[0])
		}
	}
	other := nn.TunedConfig(1, 2, 16, 5, 32)
	if m, _ := cal.GeminiModel(&other); m != models[0] {
		t.Fatal("a later configuration retrained the network; the first call's must win")
	}

	bad := calibrateOrDie(t, "xapian")
	if _, err := bad.GeminiModel(&nn.Config{HiddenLayers: -1}); err == nil {
		t.Fatal("invalid network shape accepted")
	}
	if _, err := bad.GeminiModel(&cfg); err == nil {
		t.Fatal("the first call's error was not memoized")
	}
}

// The headline end-to-end property at 50% load on three representative
// apps: ReTail meets QoS and consumes no more power than the default
// system and no more than Rubik (wide-variation apps).
func TestEndToEndPowerOrdering(t *testing.T) {
	p := testPlatform()
	for _, name := range []string{"moses", "xapian"} {
		cal := calibrateOrDie(t, name)
		rps := CalibrateMaxLoad(cal.App, p, 3) * 0.5
		dur := RecommendedDuration(cal.App, rps)
		run := func(m manager.Manager) *Result {
			res, err := Run(RunConfig{App: cal.App, Platform: p, Manager: m,
				RPS: rps, Warmup: dur / 5, Duration: dur, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		rt := run(cal.NewReTail())
		rb := run(cal.NewRubik())
		mx := run(cal.NewMaxFreq())
		if !rt.QoSMet {
			t.Errorf("%s: ReTail violates QoS (p=%v, target %v)", name, rt.TailAtQoSPct, rt.QoSTarget)
		}
		if rt.AvgPowerW >= mx.AvgPowerW {
			t.Errorf("%s: ReTail %vW ≥ MaxFreq %vW", name, rt.AvgPowerW, mx.AvgPowerW)
		}
		if rt.AvgPowerW > rb.AvgPowerW*1.02 {
			t.Errorf("%s: ReTail %vW > Rubik %vW", name, rt.AvgPowerW, rb.AvgPowerW)
		}
	}
}

func TestEvaluateManagerRMSE(t *testing.T) {
	// Table V methodology: collect run samples and score the predictor.
	p := testPlatform()
	cal := calibrateOrDie(t, "moses")
	rps := CalibrateMaxLoad(cal.App, p, 3) * 0.5
	res, err := Run(RunConfig{App: cal.App, Platform: p, Manager: cal.NewReTail(),
		RPS: rps, Warmup: 2, Duration: 6, Seed: 7, CollectSamples: true})
	if err != nil {
		t.Fatal(err)
	}
	met, err := predict.Evaluate(cal.Model, res.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if met.RMSE/res.QoSTarget > 0.15 {
		t.Fatalf("live RMSE/QoS = %v", met.RMSE/res.QoSTarget)
	}
}
