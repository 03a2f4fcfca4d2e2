package experiments

import (
	"flag"
	"strings"
	"testing"
	"time"

	"retail/internal/core"
	"retail/internal/predict"
	"retail/internal/workload"
)

// update rewrites every golden under testdata/ that a test here compares
// against (`make golden-update`), instead of comparing.
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

func quickCfg() Config { return Quick() }

func TestFig1SojournGrowsServiceFlat(t *testing.T) {
	res, err := Fig1(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// Service time is load-independent…
	if last.MeanSvc > first.MeanSvc*1.1 || last.MeanSvc < first.MeanSvc*0.9 {
		t.Fatalf("service time moved with load: %v → %v", first.MeanSvc, last.MeanSvc)
	}
	// …while tail sojourn grows with RPS.
	if last.P99Sojourn <= first.P99Sojourn {
		t.Fatalf("p99 sojourn did not grow: %v → %v", first.P99Sojourn, last.P99Sojourn)
	}
	if !strings.Contains(res.Render(), "Fig 1") {
		t.Fatal("render header missing")
	}
}

func TestFig2CategoriesMatchPaper(t *testing.T) {
	res, err := Fig2(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Apps) != 7 {
		t.Fatalf("apps = %d", len(res.Apps))
	}
	little := map[string]bool{}
	for _, a := range res.Apps {
		little[a.App] = a.LittleVariant
		if len(a.CDF) == 0 {
			t.Fatalf("%s: empty CDF", a.App)
		}
		if a.Median <= 0 || a.P90 < a.Median {
			t.Fatalf("%s: bad distribution summary %v/%v", a.App, a.Median, a.P90)
		}
	}
	// Table II's split: Masstree and ImgDNN have little/no variation; the
	// other five vary widely.
	for app, want := range map[string]bool{
		"masstree": true, "imgdnn": true,
		"moses": false, "sphinx": false, "xapian": false, "shore": false, "silo": false,
	} {
		if little[app] != want {
			t.Errorf("%s: littleVariant = %v, want %v", app, little[app], want)
		}
	}
}

func TestFig3OnlyMeaningfulInterpretationCorrelates(t *testing.T) {
	res, err := Fig3(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"moses/phrase_chars": false,
		"moses/word_count":   true,
		"sphinx/path_len":    false,
		"sphinx/audio_mb":    true,
	}
	for _, row := range res.Rows {
		key := row.App + "/" + row.Feature
		if row.Correlates != want[key] {
			t.Errorf("%s: correlates=%v (ρ=%v), want %v", key, row.Correlates, row.Pearson, want[key])
		}
	}
}

func TestFig4TypeSeparation(t *testing.T) {
	res, err := Fig4(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		ratios := map[string]float64{}
		for _, ty := range a.Types {
			ratios[ty.Type] = ty.MedianToTail
		}
		// PAYMENT and ORDER_STATUS rise nearly vertically (ratio ≈ 1);
		// NEW_ORDER and STOCK_LEVEL vary.
		for _, flat := range []string{"PAYMENT", "ORDER_STATUS"} {
			if ratios[flat] < 0.85 {
				t.Errorf("%s/%s: median:tail = %v, want ≈1", a.App, flat, ratios[flat])
			}
		}
		for _, wide := range []string{"NEW_ORDER", "STOCK_LEVEL"} {
			if ratios[wide] > 0.92 {
				t.Errorf("%s/%s: median:tail = %v, want visible variation", a.App, wide, ratios[wide])
			}
		}
	}
}

func TestFig5ApplicationFeatureCorrelations(t *testing.T) {
	res, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Pearson < 0.9 {
			t.Errorf("%s/%s/%s: ρ = %v, want strong", row.App, row.Feature, row.Subset, row.Pearson)
		}
		if row.FitSlope <= 0 {
			t.Errorf("%s/%s: non-positive slope %v", row.App, row.Feature, row.FitSlope)
		}
	}
	// Shore NEW_ORDER: the rollback subset's slope exceeds the commit
	// subset's (Fig 5b's two lines with different rates).
	var commit, rollback float64
	for _, row := range res.Rows {
		if row.App == "shore" && row.Subset == "NEW_ORDER (commit)" {
			commit = row.FitSlope
		}
		if row.App == "shore" && row.Subset == "NEW_ORDER (rollback)" {
			rollback = row.FitSlope
		}
	}
	if rollback <= commit {
		t.Errorf("rollback slope %v ≤ commit slope %v", rollback, commit)
	}
}

func TestFig6LatenessTable(t *testing.T) {
	res, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]Fig6Row{}
	for _, row := range res.Rows {
		byKey[row.App+"/"+row.Feature] = row
	}
	if r, ok := byKey["xapian/doc_count"]; !ok || !r.Usable {
		t.Error("xapian/doc_count must be usable")
	}
	if r, ok := byKey["xapian/sorted_bytes"]; !ok || r.Usable {
		t.Error("xapian/sorted_bytes must be rejected by lateness")
	}
	if r, ok := byKey["shore/distinct_items"]; !ok || !r.Usable {
		t.Error("shore/distinct_items must be usable")
	}
}

// lrTrainFloor returns the fastest of several LR fits on the app's
// calibration set, no slower than the table's own single timing. One fit
// is a ~1 ms wall-clock measurement, which a scheduler hiccup on a loaded
// two-core host can inflate past NN/20; noise only ever adds time, so the
// minimum is the fit's actual cost.
func lrTrainFloor(t *testing.T, cfg Config, app string, tableTime time.Duration) time.Duration {
	t.Helper()
	cal, err := core.Calibrate(workload.ByName(app), cfg.Platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	best := tableTime
	for i := 0; i < 7; i++ {
		m, err := predict.FitLinear(cal.Training, cal.Layout, cfg.Platform.Grid.Levels())
		if err != nil {
			t.Fatal(err)
		}
		if m.TrainDuration < best {
			best = m.TrainDuration
		}
	}
	return best
}

func TestTableIVOverheadAndAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("NN training is slow")
	}
	cfg := quickCfg()
	res, err := TableIV(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]ModelRow{}
	for _, row := range res.Rows {
		byKey[row.App+"/"+row.Model] = row
	}
	for _, app := range []string{"xapian", "moses", "sphinx"} {
		lr := byKey[app+"/LR"]
		nng := byKey[app+"/NN-G"]
		nnt := byKey[app+"/NN-T"]
		// LR trains orders of magnitude faster than either NN.
		if lrTrain := lrTrainFloor(t, cfg, app, lr.TrainTime); lrTrain*20 > nng.TrainTime {
			t.Errorf("%s: LR train %v not ≪ NN-G train %v", app, lrTrain, nng.TrainTime)
		}
		// LR inference is much cheaper.
		if lr.InferTime*5 > nng.InferTime {
			t.Errorf("%s: LR infer %v not ≪ NN-G infer %v", app, lr.InferTime, nng.InferTime)
		}
		// Accuracy is comparable: the NN buys at most a few points of R².
		if lr.R2 < 0.7 {
			t.Errorf("%s: LR R² = %v", app, lr.R2)
		}
		if nng.R2 > lr.R2+0.2 || nnt.R2 > lr.R2+0.2 {
			t.Errorf("%s: NN hugely outperforms LR (%v vs %v/%v) — not the paper's story",
				app, lr.R2, nng.R2, nnt.R2)
		}
		// RMSE/QoS stays in the single-digit-percent regime for all.
		if lr.RMSEoQoS > 0.10 {
			t.Errorf("%s: LR RMSE/QoS = %v", app, lr.RMSEoQoS)
		}
	}
}

func TestFig8LRSmoothNNWiggles(t *testing.T) {
	if testing.Short() {
		t.Skip("NN training is slow")
	}
	res, err := Fig8(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 50 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// A line has (near-)zero curvature; the NN fit wiggles more.
	if res.LRRoughness > res.NNGRoughness {
		t.Errorf("LR roughness %v > NN-G roughness %v", res.LRRoughness, res.NNGRoughness)
	}
	// All three fits track the truth within 25% at mid-range.
	for _, p := range res.Points {
		if p.DocCount < 100 || p.DocCount > 500 {
			continue
		}
		for name, v := range map[string]float64{"LR": p.LR, "NNG": p.NNG, "NNT": p.NNT} {
			if v < p.Truth*0.75 || v > p.Truth*1.25 {
				t.Fatalf("d=%v: %s fit %v vs truth %v", p.DocCount, name, v, p.Truth)
			}
		}
	}
}

func TestFig9ConvergenceByN1000(t *testing.T) {
	res, err := Fig9(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Apps {
		last := a.Points[len(a.Points)-1]
		prev := a.Points[len(a.Points)-2]
		// Converged: the last doubling of N changes R² by < 0.02.
		if last.R2-prev.R2 > 0.02 {
			t.Errorf("%s: R² still improving at N=1000 (%v → %v)", a.App, prev.R2, last.R2)
		}
		if last.R2 < 0.5 {
			t.Errorf("%s: converged R² = %v, too low", a.App, last.R2)
		}
	}
}

func TestFig11HeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	cfg := quickCfg()
	res, err := Fig11(cfg, []string{"xapian"})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Apps[0]
	if len(a.Points) != len(cfg.Loads) {
		t.Fatalf("points = %d", len(a.Points))
	}
	for _, p := range a.Points {
		// Every manager saves power versus the unmanaged system.
		for _, m := range ManagerNames {
			if p.PowerW[m] >= p.MaxFreqW*1.02 {
				t.Errorf("load %v: %s power %v ≥ maxfreq %v", p.Load, m, p.PowerW[m], p.MaxFreqW)
			}
		}
		// ReTail never drops requests and meets QoS.
		if p.DropRate["retail"] != 0 || p.DropRate["rubik"] != 0 {
			t.Errorf("load %v: retail/rubik dropped requests", p.Load)
		}
		if !p.QoSMet["retail"] {
			t.Errorf("load %v: ReTail violated QoS (tail %v)", p.Load, p.Tail["retail"])
		}
	}
	// ReTail saves power on average vs Rubik (Xapian is an app-feature
	// workload, the case the paper highlights).
	if a.AvgSavingVsRubik <= 0 {
		t.Errorf("avg saving vs rubik = %v, want positive", a.AvgSavingVsRubik)
	}
	// Table V ordering for an app-feature workload: ReTail's RMSE is the
	// smallest, Rubik's the largest.
	if !(a.RMSE["retail"] < a.RMSE["gemini"] && a.RMSE["gemini"] < a.RMSE["rubik"]) {
		t.Errorf("Table V ordering broken: retail=%v gemini=%v rubik=%v",
			a.RMSE["retail"], a.RMSE["gemini"], a.RMSE["rubik"])
	}
	// Gemini drops grow with load.
	drops := []float64{}
	for _, p := range a.Points {
		drops = append(drops, p.DropRate["gemini"])
	}
	if drops[len(drops)-1] < drops[0] {
		t.Errorf("gemini drops did not grow with load: %v", drops)
	}
}

func TestFig12AppFeaturesMatter(t *testing.T) {
	if testing.Short() {
		t.Skip("decomposition sweep is slow")
	}
	cfg := quickCfg()
	cfg.Loads = []float64{0.6}
	res, err := Fig12(cfg, "xapian")
	if err != nil {
		t.Fatal(err)
	}
	get := func(space, mech string) (Fig12Cell, bool) {
		for _, c := range res.Cells {
			if c.FeatureSpace == space && c.Mechanism == mech {
				return c, true
			}
		}
		return Fig12Cell{}, false
	}
	full, ok1 := get("request+app", "lr-alg1")
	reqOnly, ok2 := get("request-only", "lr-alg1")
	if !ok1 || !ok2 {
		t.Fatal("missing cells")
	}
	// Xapian's predictive feature is an application feature: the full
	// feature space must save power over the request-only space at equal
	// QoS compliance.
	if !full.QoSMet {
		t.Errorf("full-space lr-alg1 violates QoS (tail %v)", full.Tail)
	}
	if full.PowerW >= reqOnly.PowerW {
		t.Errorf("request+app power %v ≥ request-only %v — app features did not help",
			full.PowerW, reqOnly.PowerW)
	}
	// Fine-grained LR beats the coarse controller in the full space.
	coarse, ok := get("request+app", "coarse")
	if !ok {
		t.Fatal("missing coarse cell")
	}
	if full.PowerW >= coarse.PowerW {
		t.Errorf("lr-alg1 power %v ≥ coarse %v", full.PowerW, coarse.PowerW)
	}
	if !strings.Contains(res.Render(), "Fig 12") {
		t.Fatal("render")
	}
}

func TestFig13ReTailSavesOverPARTIES(t *testing.T) {
	if testing.Short() {
		t.Skip("colocation timeline is slow")
	}
	res, err := Fig13(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingPercent < 0.10 {
		t.Errorf("ReTail-over-PARTIES saving = %v, want ≥ 10%%", res.SavingPercent)
	}
	for app, met := range res.QoSMet {
		if !met {
			t.Errorf("%s violated QoS under colocation", app)
		}
	}
	if len(res.Points) < 20 {
		t.Fatalf("timeline too sparse: %d", len(res.Points))
	}
}

func TestFig14DriftRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("drift timeline is slow")
	}
	res, err := Fig14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if res.ViolatedBefore {
		t.Error("tail violated QoS before interference onset")
	}
	if res.Retrains == 0 {
		t.Error("no retraining despite drift")
	}
	// The quick configuration's small worker pool and low RPS slow the
	// detector's evidence accumulation; the paper-resolution run recovers
	// in ≈3 s (see EXPERIMENTS.md).
	if res.RecoverySeconds > 9.5 {
		t.Errorf("recovery took %vs", res.RecoverySeconds)
	}
	if !res.QoSMetAfter {
		t.Error("tail not back under QoS by the end")
	}
}

func TestOverheadAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("overhead run is slow")
	}
	res, err := Overhead(quickCfg(), "xapian")
	if err != nil {
		t.Fatal(err)
	}
	if res.Decisions == 0 || res.Inferences == 0 {
		t.Fatal("no decisions recorded")
	}
	if res.InferencesPerDecide < 1 {
		t.Fatalf("inferences per decision = %v", res.InferencesPerDecide)
	}
	// Paper: 5–100 µs per decision (avg ≈ 25 µs); allow a broad band.
	if res.MeanDecisionCost < 5e-6 || res.MeanDecisionCost > 500e-6 {
		t.Fatalf("mean decision cost = %v", res.MeanDecisionCost)
	}
	if res.Transitions == 0 {
		t.Fatal("no frequency transitions")
	}
}

func TestRenderersDoNotPanic(t *testing.T) {
	cfg := quickCfg()
	r2, _ := Fig2(cfg)
	r3, _ := Fig3(cfg)
	r4, _ := Fig4(cfg)
	r5, _ := Fig5(cfg)
	r6, _ := Fig6(cfg)
	for _, s := range []string{r2.Render(), r3.Render(), r4.Render(), r5.Render(), r6.Render()} {
		if len(s) == 0 {
			t.Fatal("empty render")
		}
	}
}

func TestAppNames(t *testing.T) {
	names := AppNames()
	if len(names) != 7 {
		t.Fatalf("apps = %v", names)
	}
}

// Experiments are deterministic for a fixed seed — a regression guard for
// accidental global-RNG usage anywhere in the stack.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := quickCfg()
	a, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() != b.Render() {
		t.Fatal("Fig2 not deterministic")
	}
	s1, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Render() != s2.Render() {
		t.Fatal("Fig5 not deterministic")
	}
}
