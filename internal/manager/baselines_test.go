package manager

import (
	"math"
	"math/rand"
	"testing"

	"retail/internal/cpu"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// profileOf draws max-frequency service times and features for baselines.
func profileOf(app varApp, n int, seed int64) (services []float64, feats [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		r := app.Generate(rng)
		services = append(services, float64(r.ServiceBase))
		feats = append(feats, r.Features)
	}
	return
}

// ---------------------------------------------------------------------------
// Rubik

func TestRubikTailScaling(t *testing.T) {
	app := varApp{base: 2e-3, slope: 1e-3, spread: 10, qos: workload.QoS{Latency: 50e-3, Percentile: 99}}
	svc, _ := profileOf(app, 2000, 1)
	g := cpu.DefaultGrid()
	pol := simPolicy("rubik", app.QoS(), g, svc).(*policy.Rubik)
	m := NewRubik(pol)
	atMax := pol.Estimate(g.MaxLevel())
	atMin := pol.Estimate(0)
	if math.Abs(atMin-atMax*2.1) > 1e-9 {
		t.Fatalf("proportional scaling broken: %v vs %v×2.1", atMin, atMax)
	}
	// The tail estimate sits near the p99 of the profile.
	want := stats.Percentile(svc, 99)
	if math.Abs(atMax-want) > 1e-9 {
		t.Fatalf("tail estimate %v, want %v", atMax, want)
	}
	if m.Inferences() == 0 {
		t.Fatal("inference counting missing")
	}
}

// TestRubikEmptyProfile: a Rubik without a profile has no tail to
// estimate from; construction refuses it rather than deciding on zeros.
func TestRubikEmptyProfile(t *testing.T) {
	qos := workload.QoS{Latency: 1, Percentile: 99}
	if _, err := policy.New("rubik", policy.Params{}, SimEnv(qos, cpu.DefaultGrid(), nil, policy.Params{})); err == nil {
		t.Fatal("rubik built without a profile")
	}
	if got := policy.NewRubikTail(nil, 0.999).Tail(2.1, 1); got != 0 {
		t.Fatalf("empty-profile tail = %v", got)
	}
}

func TestRubikConservativeVsReTail(t *testing.T) {
	// On a wide service distribution, Rubik treats every request as the
	// p99 giant, so its average frequency must exceed ReTail's while its
	// prediction RMSE is far worse.
	app := varApp{base: 1e-3, slope: 1e-3, spread: 25, qos: workload.QoS{Latency: 60e-3, Percentile: 99}}
	meanLevel := func(mk func(rig *testRig) Manager) (float64, float64) {
		rig := newRig(t, app, 4)
		m := mk(rig)
		m.Attach(rig.e, rig.srv)
		var levels []float64
		var services []float64
		rig.srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
			levels = append(levels, float64(r.ServedLevel))
			services = append(services, float64(r.ServiceTime()))
		}
		gen := workload.NewGenerator(app, 0.4*4/13.5e-3, 5, rig.srv.Submit)
		gen.Start(rig.e)
		rig.e.Run(6)
		gen.Stop()
		if len(levels) < 500 {
			t.Fatalf("too few completions: %d", len(levels))
		}
		return stats.Mean(levels), stats.Mean(services)
	}
	rubikLvl, _ := meanLevel(func(rig *testRig) Manager {
		svc, _ := profileOf(app, 2000, 2)
		return NewRubik(simPolicy("rubik", app.QoS(), rig.grid, svc).(*policy.Rubik))
	})
	retailLvl, _ := meanLevel(func(rig *testRig) Manager {
		return NewReTail(app.QoS(), rig.retailConfig())
	})
	if rubikLvl <= retailLvl {
		t.Fatalf("Rubik mean level %v ≤ ReTail %v — conservatism lost", rubikLvl, retailLvl)
	}
}

func TestRubikRMSEAgainst(t *testing.T) {
	app := varApp{base: 1e-3, slope: 1e-3, spread: 25, qos: workload.QoS{Latency: 60e-3, Percentile: 99}}
	svc, _ := profileOf(app, 2000, 3)
	g := cpu.DefaultGrid()
	m := NewRubik(simPolicy("rubik", app.QoS(), g, svc).(*policy.Rubik))
	atMax := make([]predict.Sample, len(svc))
	for i := range atMax {
		atMax[i].Level = g.MaxLevel()
	}
	rmse := m.RMSEAgainstAt(g, atMax, svc)
	// The tail-as-prediction error must dwarf an LR fit's (which would be
	// near the noise floor here: the relationship is exactly linear).
	mean, ss := stats.Mean(svc), 0.0
	for _, v := range svc {
		ss += (v - mean) * (v - mean)
	}
	if std := math.Sqrt(ss / float64(len(svc))); rmse < std {
		t.Fatalf("Rubik RMSE %v suspiciously low (std %v)", rmse, std)
	}
	if m.RMSEAgainstAt(g, nil, nil) != 0 {
		t.Fatal("empty actuals should give 0")
	}
}

// ---------------------------------------------------------------------------
// Gemini

func geminiFor(t testing.TB, rig *testRig, app varApp) *Gemini {
	t.Helper()
	nncfg := nn.TunedConfig(1, 1, 16, 40, 32)
	model, err := predict.FitNN(rig.set, rig.grid, nncfg, rig.grid.MaxLevel(), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	return NewGemini(app.QoS(), app.FeatureSpecs(),
		GeminiConfig{Policy: simPolicy("gemini", app.QoS(), rig.grid, nil).(*policy.Gemini), Model: model})
}

func TestGeminiDropsPredictedMisses(t *testing.T) {
	// Tight QoS with deep queues: Gemini must shed load.
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 22e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := geminiFor(t, rig, app)
	m.Attach(rig.e, rig.srv)
	dropped := 0
	rig.srv.DroppedSink = func(*sim.Engine, *workload.Request) { dropped++ }
	rig.e.At(0, "burst", func(*sim.Engine) {
		for i := 0; i < 6; i++ {
			rig.submit(0)
		}
	})
	rig.e.Run(0.5)
	// 6×10ms into a 22ms budget: at least half must be dropped.
	if dropped < 3 {
		t.Fatalf("dropped %d of 6, want ≥ 3", dropped)
	}
	if rig.srv.Completed()+dropped != 6 {
		t.Fatalf("conservation broken: %d + %d ≠ 6", rig.srv.Completed(), dropped)
	}
}

func TestGeminiNoDropWhenDisabled(t *testing.T) {
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 22e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := geminiFor(t, rig, app)
	m.drop = false
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "burst", func(*sim.Engine) {
		for i := 0; i < 6; i++ {
			rig.submit(0)
		}
	})
	rig.e.Run(0.5)
	if rig.srv.Dropped() != 0 || rig.srv.Completed() != 6 {
		t.Fatalf("drops with shedding disabled: %d/%d", rig.srv.Dropped(), rig.srv.Completed())
	}
}

func TestGeminiTwoStepBoost(t *testing.T) {
	// Slack lets Gemini start low; the checkpoint must then boost to max
	// while the request still runs.
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 80e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := geminiFor(t, rig, app)
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.5)
	if m.Boosts() == 0 {
		t.Fatal("two-step DVFS never boosted")
	}
	// After the boost the core sits at max.
	if got := rig.srv.Workers()[0].Core().EffectiveLevel(); got != rig.grid.MaxLevel() {
		t.Fatalf("post-boost level = %d", got)
	}
}

func TestGeminiDecisionLatency(t *testing.T) {
	// The frequency decision lands only after the NN inference latency: a
	// request shorter than that completes entirely at the stale level.
	app := varApp{base: 200e-6, slope: 0, spread: 1, qos: workload.QoS{Latency: 5e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := geminiFor(t, rig, app)
	m.inferenceCost = 500 * sim.Microsecond
	m.Attach(rig.e, rig.srv)
	// Leave the core at a low level to simulate the previous decision.
	rig.srv.Workers()[0].Core().SetLevelImmediate(rig.e, 2)
	rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.3)
	// The request (≈350µs at level 2) finished before the 500µs-delayed
	// decision landed; the stale decision must not re-target the core
	// after completion.
	if lvl := rig.srv.Workers()[0].Core().EffectiveLevel(); lvl != 2 {
		t.Fatalf("stale-decision guard failed: level = %d, want 2", lvl)
	}
}

func TestGeminiUsesOnlyRequestFeatures(t *testing.T) {
	app := varApp{base: 5e-3, slope: 1e-3, spread: 10, lateness: 0.2, qos: workload.QoS{Latency: 50e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := geminiFor(t, rig, app)
	m.Attach(rig.e, rig.srv)
	// The lone feature has lateness 0.2 (an application feature): Gemini
	// must zero it, predicting the same service for any value.
	a := m.predictAt(0, &workload.Request{Features: []float64{1}})
	b := m.predictAt(0, &workload.Request{Features: []float64{9}})
	if a != b {
		t.Fatalf("application feature leaked into Gemini: %v vs %v", a, b)
	}
}

// ---------------------------------------------------------------------------
// Adrenaline

func TestAdrenalineClassification(t *testing.T) {
	app := varApp{base: 1e-3, slope: 1e-3, spread: 20, qos: workload.QoS{Latency: 50e-3, Percentile: 99}}
	svc, feats := profileOf(app, 2000, 4)
	vals := make([]float64, len(feats))
	for i, f := range feats {
		vals[i] = f[0]
	}
	g := cpu.DefaultGrid()
	m := NewAdrenaline(app.QoS(), g, 0, vals, svc)
	// Threshold at the 75th percentile of the feature.
	if m.Threshold < 13 || m.Threshold > 16 {
		t.Fatalf("threshold = %v, want ≈14.25", m.Threshold)
	}
	rig := newRig(t, app, 1)
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "short", func(*sim.Engine) { rig.submit(2) })
	rig.e.At(0.1, "long", func(*sim.Engine) { rig.submit(19) })
	var shortLvl, longLvl cpu.Level
	rig.e.At(0.05, "c1", func(*sim.Engine) { shortLvl = rig.srv.Workers()[0].Core().EffectiveLevel() })
	rig.e.At(0.15, "c2", func(*sim.Engine) { longLvl = rig.srv.Workers()[0].Core().EffectiveLevel() })
	rig.e.Run(0.5)
	if longLvl != g.MaxLevel() {
		t.Fatalf("long request level = %d, want max", longLvl)
	}
	if shortLvl >= longLvl {
		t.Fatalf("short request not slowed: %d vs %d", shortLvl, longLvl)
	}
	if s, l := m.shortCount, m.longCount; s != 1 || l != 1 {
		t.Fatalf("classified %d short / %d long", s, l)
	}
}

func TestAdrenalineNoFeatureRunsMax(t *testing.T) {
	app := varApp{base: 1e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 10e-3, Percentile: 99}}
	g := cpu.DefaultGrid()
	m := NewAdrenaline(app.QoS(), g, -1, nil, nil)
	rig := newRig(t, app, 1)
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "sub", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.1)
	if got := rig.srv.Workers()[0].Core().EffectiveLevel(); got != g.MaxLevel() {
		t.Fatalf("featureless Adrenaline level = %d, want max", got)
	}
}

// ---------------------------------------------------------------------------
// Pegasus

func TestPegasusAdjustsWholeApplication(t *testing.T) {
	app := varApp{base: 2e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 40e-3, Percentile: 99}}
	rig := newRig(t, app, 4)
	m := NewPegasus(app.QoS())
	m.Attach(rig.e, rig.srv)
	gen := workload.NewGenerator(app, 0.3*4/2e-3, 6, rig.srv.Submit)
	gen.Start(rig.e)
	rig.e.Run(5)
	gen.Stop()
	// Light load with huge slack: the controller must have walked the
	// whole socket down from max.
	if m.level >= rig.grid.MaxLevel() {
		t.Fatalf("Pegasus stuck at level %d", m.level)
	}
	for _, c := range rig.srv.Socket.Cores {
		if c.EffectiveLevel() != m.level {
			t.Fatalf("core %d at %d, app level %d — not coarse-grained", c.ID, c.EffectiveLevel(), m.level)
		}
	}
}

func TestPegasusBoostsOnViolation(t *testing.T) {
	app := varApp{base: 9e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 10e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	m := NewPegasus(app.QoS())
	m.Attach(rig.e, rig.srv)
	// Force a low starting level, then drive violations.
	m.level = 2
	for _, c := range rig.srv.Socket.Cores {
		c.SetLevelImmediate(rig.e, 2)
	}
	gen := workload.NewGenerator(app, 60, 7, rig.srv.Submit)
	gen.Start(rig.e)
	rig.e.Run(3)
	gen.Stop()
	if m.level != rig.grid.MaxLevel() {
		t.Fatalf("violation did not jump to max: level %d", m.level)
	}
}

// ---------------------------------------------------------------------------
// MaxFreq

func TestMaxFreqPinsAllCores(t *testing.T) {
	app := varApp{base: 1e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 10e-3, Percentile: 99}}
	rig := newRig(t, app, 3)
	for _, c := range rig.srv.Socket.Cores {
		c.SetLevelImmediate(rig.e, 0)
	}
	m := NewMaxFreq()
	m.Attach(rig.e, rig.srv)
	for _, c := range rig.srv.Socket.Cores {
		if c.EffectiveLevel() != rig.grid.MaxLevel() {
			t.Fatalf("core %d at %d after MaxFreq attach", c.ID, c.EffectiveLevel())
		}
	}
	if m.Name() != "maxfreq" {
		t.Fatal("name mismatch")
	}
}
