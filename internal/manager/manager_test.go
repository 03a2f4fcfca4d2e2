package manager

import (
	"math/rand"
	"testing"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// varApp is a controllable workload whose service time is exactly
// base + slope·x for feature x ∈ [0, spread), fully compute-bound by
// default so frequency math is exact.
type varApp struct {
	base, slope float64 // seconds
	spread      int
	cf          float64
	qos         workload.QoS
	lateness    float64
}

func (a varApp) Name() string      { return "var" }
func (a varApp) QoS() workload.QoS { return a.qos }
func (a varApp) FeatureSpecs() []workload.FeatureSpec {
	return []workload.FeatureSpec{{Name: "x", Kind: workload.Numerical, Lateness: a.lateness}}
}
func (a varApp) Generate(rng *rand.Rand) *workload.Request {
	x := float64(rng.Intn(a.spread))
	cf := a.cf
	if cf == 0 {
		cf = 1
	}
	return &workload.Request{
		App:         a.Name(),
		Features:    []float64{x},
		ServiceBase: sim.Duration(a.base + a.slope*x),
		ComputeFrac: cf,
	}
}

// simPolicy builds the named policy with zero Params in the simulator's
// environment, for tests whose inputs are known valid.
func simPolicy(name string, qos workload.QoS, grid *cpu.Grid, profile []float64) policy.Policy {
	pol, err := policy.New(name, policy.Params{}, SimEnv(qos, grid, profile, policy.Params{}))
	if err != nil {
		panic(err)
	}
	return pol
}

// testRig wires an engine, server and calibrated linear model for a
// varApp.
type testRig struct {
	e    *sim.Engine
	srv  *server.Server
	app  varApp
	grid *cpu.Grid
	set  *predict.TrainingSet
	mdl  *predict.LinearModel
}

func newRig(t testing.TB, app varApp, workers int) *testRig {
	t.Helper()
	g := cpu.DefaultGrid()
	// Calibrate a linear model from exact per-level samples.
	rng := rand.New(rand.NewSource(9))
	set := predict.NewTrainingSet(300)
	for lvl := cpu.Level(0); int(lvl) < g.Levels(); lvl++ {
		for i := 0; i < 300; i++ {
			r := app.Generate(rng)
			set.Add(predict.Sample{
				Level: lvl, Features: r.Features,
				Service: float64(r.ServiceAt(g.Freq(lvl), g.MaxFreq(), 1)),
			})
		}
	}
	layout := predict.FeatureLayout{Specs: app.FeatureSpecs(), Selected: []int{0}}
	mdl, err := predict.FitLinear(set, layout, g.Levels())
	if err != nil {
		t.Fatal(err)
	}
	rig := &testRig{app: app, grid: g, set: set, mdl: mdl}
	rig.reset(workers)
	return rig
}

// reset gives the rig a fresh engine and an idle server, keeping the
// calibrated model.
func (r *testRig) reset(workers int) {
	r.e = sim.NewEngine()
	r.srv = server.New(server.Config{
		App: r.app, Workers: workers, Grid: r.grid,
		Power: cpu.DefaultPowerModel(r.grid),
		Trans: cpu.TransitionModel{Min: 1e-6, Mean: 2e-6, Max: 5e-6},
		Seed:  1,
	})
}

func (r *testRig) retailConfig() ReTailConfig {
	return ReTailConfig{
		Policy:   simPolicy("retail", r.app.QoS(), r.grid, nil).(*policy.Retail),
		Layout:   predict.FeatureLayout{Specs: r.app.FeatureSpecs(), Selected: []int{0}},
		Model:    r.mdl,
		Training: r.set,
	}
}

// submit injects a request with feature x at the current time.
func (r *testRig) submit(x float64) *workload.Request {
	req := &workload.Request{
		App:         r.app.Name(),
		Features:    []float64{x},
		ServiceBase: sim.Duration(r.app.base + r.app.slope*x),
		ComputeFrac: 1,
		Gen:         r.e.Now(),
	}
	r.srv.Submit(r.e, req)
	return req
}

func TestObservableFeatures(t *testing.T) {
	specs := []workload.FeatureSpec{
		{Name: "req", Kind: workload.Numerical, Lateness: 0},
		{Name: "app", Kind: workload.Numerical, Lateness: 0.1},
	}
	r := &workload.Request{Features: []float64{3, 7}}
	// Not ready: application feature hidden.
	got := AppendObservableFeatures(nil, specs, r, false, false)
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("not-ready features = %v", got)
	}
	// Ready: everything visible.
	got = AppendObservableFeatures(nil, specs, r, true, false)
	if got[0] != 3 || got[1] != 7 {
		t.Fatalf("ready features = %v", got)
	}
	// Request-only managers never see application features.
	got = AppendObservableFeatures(nil, specs, r, true, true)
	if got[0] != 3 || got[1] != 0 {
		t.Fatalf("request-only features = %v", got)
	}
	// The input is never mutated.
	if r.Features[1] != 7 {
		t.Fatal("AppendObservableFeatures mutated the request")
	}
}
