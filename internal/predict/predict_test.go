package predict

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"retail/internal/cpu"
	"retail/internal/nn"
	"retail/internal/workload"
)

// fillSet populates a training set with samples from app across all levels
// of the grid, computing the true service time at each level (no
// interference). This mimics the paper's calibration sweep.
func fillSet(app workload.App, grid *cpu.Grid, perLevel int, seed int64) *TrainingSet {
	rng := rand.New(rand.NewSource(seed))
	set := NewTrainingSet(perLevel)
	for lvl := cpu.Level(0); int(lvl) < grid.Levels(); lvl++ {
		for i := 0; i < perLevel; i++ {
			r := app.Generate(rng)
			set.Add(Sample{
				Level:    lvl,
				Features: r.Features,
				Service:  float64(r.ServiceAt(grid.Freq(lvl), grid.MaxFreq(), 1)),
			})
		}
	}
	return set
}

func layoutFor(app workload.App, names ...string) FeatureLayout {
	l := FeatureLayout{Specs: app.FeatureSpecs()}
	for _, n := range names {
		l.Selected = append(l.Selected, workload.FeatureIndex(app, n))
	}
	return l
}

func TestTrainingSetRing(t *testing.T) {
	set := NewTrainingSet(3)
	for i := 0; i < 5; i++ {
		set.Add(Sample{Level: 0, Features: []float64{float64(i)}, Service: float64(i)})
	}
	if set.CountAt(0) != 3 {
		t.Fatalf("count = %d, want 3", set.CountAt(0))
	}
	ss := set.At(0)
	if ss[0].Service != 2 || ss[2].Service != 4 {
		t.Fatalf("ring kept %v..%v, want 2..4", ss[0].Service, ss[2].Service)
	}
	if set.Total() != 3 {
		t.Fatalf("total = %d", set.Total())
	}
	set.Add(Sample{Level: 1, Service: 9})
	if set.Total() != 4 || set.CountAt(1) != 1 {
		t.Fatal("second level not tracked")
	}
	if len(set.All()) != 4 {
		t.Fatalf("All() = %d", len(set.All()))
	}
	set.Clear()
	if set.Total() != 0 {
		t.Fatal("Clear failed")
	}
}

func TestTrainingSetDefaultCap(t *testing.T) {
	set := NewTrainingSet(0)
	for i := 0; i < 1500; i++ {
		set.Add(Sample{Level: 0, Service: 1})
	}
	if set.CountAt(0) != 1000 {
		t.Fatalf("default cap = %d, want 1000 (the paper's N)", set.CountAt(0))
	}
}

// naiveSet is TrainingSet's executable specification: one slice per level,
// shift-down eviction, eager deep clone.
type naiveSet struct {
	cap int
	lv  map[cpu.Level][]Sample
}

func (n *naiveSet) add(s Sample) {
	s.Features = append([]float64(nil), s.Features...)
	b := append(n.lv[s.Level], s)
	if len(b) > n.cap {
		b = b[1:]
	}
	n.lv[s.Level] = b
}

func (n *naiveSet) clone() *naiveSet {
	c := &naiveSet{cap: n.cap, lv: map[cpu.Level][]Sample{}}
	for _, s := range n.all() {
		c.add(s)
	}
	return c
}

func (n *naiveSet) all() []Sample {
	var out []Sample
	for lvl := cpu.Level(0); len(out) < n.total(); lvl++ {
		out = append(out, n.lv[lvl]...)
	}
	return out
}

func (n *naiveSet) total() int {
	t := 0
	for _, b := range n.lv {
		t += len(b)
	}
	return t
}

func sameSamples(a, b []Sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Level != b[i].Level || a[i].Service != b[i].Service || !slices.Equal(a[i].Features, b[i].Features) {
			return false
		}
	}
	return true
}

// TestTrainingSetMatchesNaiveModel drives a family of sets related by
// Clone through random Add/Clone/Clear sequences, each mirrored on the
// naive model, and compares every member's full contents after every
// step: same samples in the same order per level, All() level-ascending,
// and — because every member is re-checked after each mutation of any
// other — clone isolation in both directions, before and after the rings
// rotate. The caller's feature buffer is scribbled on after each Add, so
// a set that aliased it would diverge from the model.
func TestTrainingSetMatchesNaiveModel(t *testing.T) {
	const maxLevel = 6
	type pair struct {
		set *TrainingSet
		ref *naiveSet
	}
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capPer := 1 + rng.Intn(5)
		fam := []pair{{NewTrainingSet(capPer), &naiveSet{cap: capPer, lv: map[cpu.Level][]Sample{}}}}
		scratch := make([]float64, 3)
		for step := 0; step < 250; step++ {
			p := fam[rng.Intn(len(fam))]
			switch k := rng.Intn(20); {
			case k < 15:
				lvl := cpu.Level(rng.Intn(maxLevel))
				if lvl == 2 {
					lvl = 3 // a level nothing is ever stored at
				}
				feats := scratch[:rng.Intn(len(scratch)+1)]
				for i := range feats {
					feats[i] = rng.Float64()
				}
				s := Sample{Level: lvl, Features: feats, Service: rng.Float64()}
				p.set.Add(s)
				p.ref.add(s)
				for i := range scratch {
					scratch[i] = -1
				}
			case k < 19:
				c := pair{p.set.Clone(), p.ref.clone()}
				if len(fam) < 6 {
					fam = append(fam, c)
				} else {
					fam[rng.Intn(len(fam))] = c
				}
			default:
				p.set.Clear()
				p.ref.lv = map[cpu.Level][]Sample{}
			}
			for i, m := range fam {
				if got, want := m.set.All(), m.ref.all(); !sameSamples(got, want) || m.set.Total() != len(want) {
					t.Fatalf("seed %d step %d member %d: All() = %v (Total %d), model has %v", seed, step, i, got, m.set.Total(), want)
				}
				for lvl := cpu.Level(-1); lvl <= maxLevel; lvl++ {
					if got, want := m.set.At(lvl), m.ref.lv[lvl]; !sameSamples(got, want) || m.set.CountAt(lvl) != len(want) {
						t.Fatalf("seed %d step %d member %d level %d: At = %v (CountAt %d), model has %v", seed, step, i, lvl, got, m.set.CountAt(lvl), want)
					}
				}
			}
		}
	}
}

// TestTrainingSetConcurrentClones is the fleet fan-out's access pattern,
// for the race detector: many goroutines clone one shared calibration set
// (whose ring has rotated) and train their own copy, while the shared set
// is only read.
func TestTrainingSetConcurrentClones(t *testing.T) {
	shared := NewTrainingSet(4)
	for i := 0; i < 30; i++ {
		shared.Add(Sample{Level: cpu.Level(i % 3), Features: []float64{float64(i)}, Service: float64(i)})
	}
	want := shared.All()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := shared.Clone()
			if !sameSamples(c.All(), want) {
				t.Errorf("goroutine %d: clone differs from the shared set", g)
			}
			for i := 0; i < 10; i++ {
				c.Add(Sample{Level: cpu.Level(i % 4), Features: []float64{float64(g)}, Service: float64(g)})
			}
			if got := c.At(0); got[len(got)-1].Service != float64(g) {
				t.Errorf("goroutine %d: own sample missing from its clone", g)
			}
			_ = shared.At(1)
		}()
	}
	wg.Wait()
	if !sameSamples(shared.All(), want) {
		t.Error("a clone's samples leaked into the shared set")
	}
}

func TestFitLinearValidation(t *testing.T) {
	if _, err := FitLinear(NewTrainingSet(10), FeatureLayout{}, 12); err == nil {
		t.Fatal("empty set accepted")
	}
	set := NewTrainingSet(10)
	set.Add(Sample{Level: 0, Features: []float64{1}, Service: 1})
	if _, err := FitLinear(set, FeatureLayout{}, 0); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestLinearRecoversMosesModel(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 1)
	layout := layoutFor(app, "word_count")
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	// Held-out accuracy at two levels.
	test := fillSet(app, grid, 200, 99)
	for _, lvl := range []cpu.Level{0, 11} {
		met, err := Evaluate(m, test.At(lvl))
		if err != nil {
			t.Fatal(err)
		}
		if met.R2 < 0.95 {
			t.Fatalf("level %d R² = %v", lvl, met.R2)
		}
		// RMSE/QoS well under the Table-IV ballpark (≈3%).
		if met.RMSE/float64(app.QoS().Latency) > 0.06 {
			t.Fatalf("level %d RMSE/QoS = %v", lvl, met.RMSE/float64(app.QoS().Latency))
		}
	}
	if m.TrainDuration <= 0 {
		t.Fatal("TrainDuration not recorded")
	}
}

func TestLinearPerFrequencyBeatsProportionalScaling(t *testing.T) {
	// Masstree is memory-bound (ComputeFrac 0.45): at fmin, true service
	// is ~1.55× the fmax service, not 2.1×. The per-level model must track
	// that; a proportional scaler must not.
	app := workload.NewMasstree()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 2)
	m, err := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	r := app.Generate(rng)
	trueMin := float64(r.ServiceAt(grid.MinFreq(), grid.MaxFreq(), 1))
	predMin := m.Predict(0, r.Features)
	proportional := m.Predict(grid.MaxLevel(), r.Features) * grid.MaxFreq() / grid.MinFreq()
	if math.Abs(predMin-trueMin)/trueMin > 0.10 {
		t.Fatalf("per-level prediction off: %v vs true %v", predMin, trueMin)
	}
	if math.Abs(proportional-trueMin)/trueMin < 0.15 {
		t.Fatalf("proportional scaling unexpectedly accurate (%v vs %v) — workload not memory-bound enough",
			proportional, trueMin)
	}
}

func TestLinearCategoricalCombos(t *testing.T) {
	// Shore: tx_type × rollback combos with item counts. Verify distinct
	// combos produce distinct, sensible predictions.
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 1500, 4)
	layout := layoutFor(app, "tx_type", "item_count", "rollback", "distinct_items")
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	if layout.Combos() != 8 { // 4 types × 2 rollback
		t.Fatalf("combos = %d", layout.Combos())
	}
	lvl := grid.MaxLevel()
	// NEW_ORDER with more items takes longer.
	few := m.Predict(lvl, []float64{workload.TxNewOrder, 5, 0, 0})
	many := m.Predict(lvl, []float64{workload.TxNewOrder, 15, 0, 0})
	if many <= few {
		t.Fatalf("item_count slope lost: 5→%v, 15→%v", few, many)
	}
	// Rollback costs extra.
	rb := m.Predict(lvl, []float64{workload.TxNewOrder, 10, 1, 0})
	norm := m.Predict(lvl, []float64{workload.TxNewOrder, 10, 0, 0})
	if rb <= norm {
		t.Fatalf("rollback not costed: %v vs %v", rb, norm)
	}
	// STOCK_LEVEL scales with distinct items.
	lo := m.Predict(lvl, []float64{workload.TxStockLevel, 0, 0, 100})
	hi := m.Predict(lvl, []float64{workload.TxStockLevel, 0, 0, 300})
	if hi <= lo {
		t.Fatalf("distinct_items slope lost: %v vs %v", lo, hi)
	}
	// Held-out accuracy.
	met, err := Evaluate(m, fillSet(app, grid, 300, 98).At(lvl))
	if err != nil {
		t.Fatal(err)
	}
	if met.R2 < 0.9 {
		t.Fatalf("Shore R² = %v", met.R2)
	}
}

func TestLinearConstantAppUsesMeans(t *testing.T) {
	// No selected features: the model is a per-level mean table.
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 300, 5)
	m, err := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	r := app.Generate(rng)
	for _, lvl := range []cpu.Level{0, 6, 11} {
		truth := float64(r.ServiceAt(grid.Freq(lvl), grid.MaxFreq(), 1))
		pred := m.Predict(lvl, r.Features)
		if math.Abs(pred-truth)/truth > 0.12 {
			t.Fatalf("level %d: pred %v vs true %v", lvl, pred, truth)
		}
	}
}

func TestLinearPredictClampsLevel(t *testing.T) {
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 100, 7)
	m, _ := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	r := app.Generate(rand.New(rand.NewSource(8)))
	if p := m.Predict(-5, r.Features); p != m.Predict(0, r.Features) {
		t.Fatal("negative level not clamped")
	}
	if p := m.Predict(99, r.Features); p != m.Predict(11, r.Features) {
		t.Fatal("overflow level not clamped")
	}
}

func TestLinearFallbackChain(t *testing.T) {
	// Samples only at level 3; predictions at other levels fall back to
	// level/global means rather than failing.
	app := workload.NewMoses()
	set := NewTrainingSet(100)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		r := app.Generate(rng)
		set.Add(Sample{Level: 3, Features: r.Features, Service: float64(r.ServiceBase)})
	}
	m, err := FitLinear(set, layoutFor(app, "word_count"), 12)
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rng)
	if p := m.Predict(7, r.Features); p <= 0 {
		t.Fatalf("fallback prediction = %v", p)
	}
}

func TestCoefficientsExplainability(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 10)
	m, _ := FitLinear(set, layoutFor(app, "word_count"), grid.Levels())
	beta, ok := m.Coefficients(0, int(grid.MaxLevel()))
	if !ok {
		t.Fatal("no coefficients for the only combo at max level")
	}
	// Ground truth at fmax: service = 1.8ms + 0.58ms·words (± noise).
	if math.Abs(beta[1]-0.58e-3) > 0.05e-3 {
		t.Fatalf("slope = %v, want ≈0.58ms/word", beta[1])
	}
	if math.Abs(beta[0]-1.8e-3) > 0.4e-3 {
		t.Fatalf("intercept = %v, want ≈1.8ms", beta[0])
	}
	if _, ok := m.Coefficients(99, 0); ok {
		t.Fatal("out-of-range combo returned coefficients")
	}
}

func TestFitNN(t *testing.T) {
	app := workload.NewXapian()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 400, 11)
	idx := []int{workload.FeatureIndex(app, "doc_count")}
	cfg := nn.TunedConfig(1, 1, 16, 60, 32)
	m, err := FitNN(set, grid, cfg, grid.MaxLevel(), idx)
	if err != nil {
		t.Fatal(err)
	}
	met, err := Evaluate(m, fillSet(app, grid, 200, 97).At(grid.MaxLevel()))
	if err != nil {
		t.Fatal(err)
	}
	if met.R2 < 0.9 {
		t.Fatalf("NN R² = %v at reference level", met.R2)
	}
	if m.TrainDuration <= 0 {
		t.Fatal("NN TrainDuration missing")
	}
}

func TestNNProportionalScalingIsWrongForMemoryBound(t *testing.T) {
	// The NN predictor scales latency ∝ 1/f. For Masstree (ComputeFrac
	// 0.45) that overestimates low-frequency service times.
	app := workload.NewMasstree()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 400, 12)
	idx := []int{0, 1}
	m, err := FitNN(set, grid, nn.TunedConfig(2, 1, 8, 40, 32), grid.MaxLevel(), idx)
	if err != nil {
		t.Fatal(err)
	}
	r := app.Generate(rand.New(rand.NewSource(13)))
	truth := float64(r.ServiceAt(grid.MinFreq(), grid.MaxFreq(), 1))
	pred := m.Predict(0, r.Features)
	if pred < truth*1.15 {
		t.Fatalf("NN @fmin predicted %v vs true %v — expected systematic overestimate", pred, truth)
	}
}

func TestFitNNValidation(t *testing.T) {
	grid := cpu.DefaultGrid()
	set := NewTrainingSet(10)
	if _, err := FitNN(set, grid, nn.TunedConfig(1, 1, 4, 5, 8), 0, []int{0}); err == nil {
		t.Fatal("empty reference level accepted")
	}
	set.Add(Sample{Level: 0, Features: []float64{1}, Service: 1})
	if _, err := FitNN(set, grid, nn.TunedConfig(1, 1, 4, 5, 8), 0, nil); err == nil {
		t.Fatal("no input features accepted")
	}
}

func TestEvaluateTooFew(t *testing.T) {
	app := workload.NewImgDNN()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 50, 14)
	m, _ := FitLinear(set, FeatureLayout{Specs: app.FeatureSpecs()}, grid.Levels())
	if _, err := Evaluate(m, nil); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	if _, err := Evaluate(m, set.At(0)[:1]); err == nil {
		t.Fatal("single-sample evaluation accepted")
	}
}

func TestDriftDetector(t *testing.T) {
	d := NewDriftDetector(10e-3, 0.05, 100)
	d.SetBaseline(0.03)
	// Healthy predictions: error ≈ 0.2ms → RMSE/QoS = 0.02 < baseline+thr.
	for i := 0; i < 100; i++ {
		d.Observe(5e-3, 5.2e-3)
	}
	if cur, ok := d.Current(); !ok || math.Abs(cur-0.02) > 1e-9 {
		t.Fatalf("current = %v, %v", cur, ok)
	}
	if d.Drifted() {
		t.Fatal("healthy state flagged as drift")
	}
	// Interference: errors jump to 1.5ms → RMSE/QoS 0.15 > 0.03+0.05.
	for i := 0; i < 100; i++ {
		d.Observe(5e-3, 6.5e-3)
	}
	if !d.Drifted() {
		t.Fatal("drift not detected")
	}
	d.Reset()
	if _, ok := d.Current(); ok {
		t.Fatal("window not cleared")
	}
}

func TestDriftDetectorOnDriftFiresOncePerEpisode(t *testing.T) {
	d := NewDriftDetector(10e-3, 0.05, 100)
	d.SetBaseline(0.03)
	fires := 0
	d.OnDrift(func() { fires++ })
	drive := func() {
		for i := 0; i < 100; i++ {
			d.Observe(5e-3, 6.5e-3) // RMSE/QoS 0.15 ≫ baseline+threshold
		}
	}
	drive()
	for i := 0; i < 5; i++ {
		if !d.Drifted() {
			t.Fatal("drift not detected")
		}
	}
	if fires != 1 {
		t.Fatalf("OnDrift fired %d times within one episode, want 1", fires)
	}
	// Reset (as a retrain does) re-arms the notification for the next
	// episode.
	d.Reset()
	drive()
	if !d.Drifted() || fires != 2 {
		t.Fatalf("after reset: drifted=%v fires=%d, want true/2", d.Drifted(), fires)
	}
}

func TestDriftDetectorNeedsBaselineAndData(t *testing.T) {
	d := NewDriftDetector(1, 0.05, 100)
	d.Observe(1, 2)
	if d.Drifted() {
		t.Fatal("drift without baseline")
	}
	d.SetBaseline(0)
	// Window only 1/100 full: not enough data.
	if d.Drifted() {
		t.Fatal("drift with insufficient window")
	}
}

func TestDriftDetectorDefaults(t *testing.T) {
	d := NewDriftDetector(1, 0, 0)
	if d.Threshold != 0.05 || len(d.errs) != 200 {
		t.Fatalf("defaults = %v/%d", d.Threshold, len(d.errs))
	}
}

// Property: LinearModel predictions are finite and positive for arbitrary
// in-range inputs across all apps.
func TestLinearPredictionsSane(t *testing.T) {
	grid := cpu.DefaultGrid()
	models := map[string]*LinearModel{}
	layouts := map[string]FeatureLayout{
		"moses":  layoutFor(workload.NewMoses(), "word_count"),
		"shore":  layoutFor(workload.NewShore(), "tx_type", "item_count", "rollback", "distinct_items"),
		"xapian": layoutFor(workload.NewXapian(), "doc_count"),
	}
	for name, layout := range layouts {
		set := fillSet(workload.ByName(name), grid, 400, 15)
		m, err := FitLinear(set, layout, grid.Levels())
		if err != nil {
			t.Fatal(err)
		}
		models[name] = m
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for name, m := range models {
			r := workload.ByName(name).Generate(rng)
			lvl := cpu.Level(rng.Intn(grid.Levels()))
			p := m.Predict(lvl, r.Features)
			if math.IsNaN(p) || math.IsInf(p, 0) || p <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: predictions are monotone non-increasing in frequency level for
// compute-bearing workloads (higher frequency never predicts longer
// service), given dense training data.
func TestLinearMonotoneAcrossLevels(t *testing.T) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 800, 16)
	m, err := FitLinear(set, layoutFor(app, "word_count"), grid.Levels())
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := app.Generate(rng)
		prev := math.Inf(1)
		for lvl := cpu.Level(0); int(lvl) < grid.Levels(); lvl++ {
			p := m.Predict(lvl, r.Features)
			if p > prev*1.02 { // 2% tolerance for fit noise
				return false
			}
			prev = p
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinearPredict(b *testing.B) {
	app := workload.NewShore()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 500, 17)
	layout := FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0, 1, 2, 3}}
	m, err := FitLinear(set, layout, grid.Levels())
	if err != nil {
		b.Fatal(err)
	}
	feats := []float64{workload.TxNewOrder, 10, 0, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(cpu.Level(i%12), feats)
	}
}

func BenchmarkFitLinear1000(b *testing.B) {
	app := workload.NewMoses()
	grid := cpu.DefaultGrid()
	set := fillSet(app, grid, 1000, 18)
	layout := layoutFor(app, "word_count")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FitLinear(set, layout, grid.Levels()); err != nil {
			b.Fatal(err)
		}
	}
}
