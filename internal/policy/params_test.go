package policy

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"retail/internal/cpu"
)

// tunedParams returns a params value with every knob set off its default,
// exercising the full schema in the round-trip and SHA tests.
func tunedParams() Params {
	return Params{
		Version: ParamsVersion,
		Monitor: MonitorParams{
			Interval: 0.05, StepFrac: 0.04, RelaxBelow: 0.85,
			GuardBand: 0.94, CorrectionBand: 0.08, Cap: 1.05,
			Span: 0.8, MinKeep: 40, MaxWindow: 4096, MinSamples: 30,
			Alpha: 0.5, Disabled: false,
		},
		Alg1:    Alg1Params{HeadOnly: true},
		Rubik:   RubikParams{Quantile: 0.99},
		Gemini:  GeminiParams{BoostFrac: 0.7, KeepOnPredictedMiss: true},
		EETL:    EETLParams{Quantile: 0.8, SlowFrac: 0.25},
		Degrade: DegradeParams{ShedFactor: 3, DeadlineFactor: 2, MaxDVFSRetries: 5, RetryBackoff: 0.001},
		Dispatch: DispatchParams{
			Rule: "weighted", Weights: []float64{1, 2, 0.5},
		},
		ClassScales: []float64{1, 0.5, 2},
	}
}

// TestParamsRoundTrip pins the serialization contract: canonical bytes
// parse back to a deeply equal value whose canonical bytes are
// bit-identical — the property that makes a params.json a faithful name
// for a configuration.
func TestParamsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Params
	}{
		{"default", DefaultParams()},
		{"tuned", tunedParams()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b1, err := tc.p.CanonicalJSON()
			if err != nil {
				t.Fatalf("CanonicalJSON: %v", err)
			}
			got, err := ParseParams(bytes.NewReader(b1))
			if err != nil {
				t.Fatalf("ParseParams: %v", err)
			}
			want := tc.p
			want.Version = ParamsVersion
			if !reflect.DeepEqual(got, want) {
				t.Errorf("round-trip changed value:\n got %+v\nwant %+v", got, want)
			}
			b2, err := got.CanonicalJSON()
			if err != nil {
				t.Fatalf("CanonicalJSON (reparsed): %v", err)
			}
			if !bytes.Equal(b1, b2) {
				t.Errorf("canonical bytes not stable under round-trip:\n%s\nvs\n%s", b1, b2)
			}
		})
	}
}

// TestParamsUnknownField pins the strict-decode contract: a typo'd knob
// is an error, never a silent revert to the default.
func TestParamsUnknownField(t *testing.T) {
	_, err := ParseParams(strings.NewReader(`{"version": 1, "monitor": {"guard_bandd": 0.9}, "alg1": {}, "rubik": {}, "gemini": {}, "eetl": {}, "degrade": {}, "dispatch": {}}`))
	if err == nil {
		t.Fatal("ParseParams accepted an unknown field")
	}
	if !strings.Contains(err.Error(), "guard_bandd") {
		t.Errorf("error should name the unknown field, got: %v", err)
	}
}

// TestParamsZeroIdentity pins the behavior-preservation contract: an
// empty Params overlays nothing, so every runtime's historical monitor
// construction comes out unchanged, and New gives every baseline its
// historical posture.
func TestParamsZeroIdentity(t *testing.T) {
	var p Params

	// The two historical monitor bases (simulator and live runtime).
	for _, base := range []MonitorConfig{
		{Target: 0.008, Percentile: 99, Interval: 0.1, Span: 0.5},
		{Target: 0.012, Percentile: 99, Interval: 0.05, Span: 2, MinKeep: 20, Cap: 1.1, Alpha: 1},
	} {
		got := NewMonitor(p.Monitor.Apply(base)).Config()
		want := NewMonitor(base).Config()
		if got != want {
			t.Errorf("zero params changed monitor config:\n got %+v\nwant %+v", got, want)
		}
	}
	// And the filled defaults still carry the paper's constants.
	c := NewMonitor(p.Monitor.Apply(MonitorConfig{Target: 1, Percentile: 99})).Config()
	if c.StepFrac != 0.05 || c.RelaxBelow != 0.9 || c.GuardBand != 0.96 ||
		c.CorrectionBand != 0.06 || c.Cap != 1.0 || c.Alpha != 0.35 {
		t.Errorf("zero params + NewMonitor defaults drifted: %+v", c)
	}

	// Through New, the baselines' zero fields select their historical
	// postures: Rubik's 0.999 tail, Gemini's 0.8 checkpoint, EETL's 0.75
	// threshold quantile at the slow level MaxLevel/2 — the integer
	// division at every plausible grid size.
	profile := []float64{1e-3, 2e-3, 3e-3, 4e-3}
	env := testEnv(cpu.DefaultGrid(), profile)
	if r := mustNew(t, "rubik", p, env).(*Rubik); r.tail.quantile != 0.999 {
		t.Errorf("zero params Rubik quantile = %v", r.tail.quantile)
	}
	if g := mustNew(t, "gemini", p, env).(*Gemini); g.boostFrac != 0.8 {
		t.Errorf("zero params Gemini boost fraction = %v", g.boostFrac)
	}
	for maxLevel := 0; maxLevel <= 32; maxLevel++ {
		grid := gridOf(maxLevel)
		e := mustNew(t, "eetl", p, testEnv(grid, profile)).(*EETL)
		if want := cpu.Level(maxLevel / 2); e.Slow() != want {
			t.Errorf("max level %d: zero params EETL slow level %d, want %d", maxLevel, e.Slow(), want)
		}
		thr, _, _ := e.Boost(e.Slow(), 0)
		if want := EETLThreshold(profile, 0.75, grid.MaxFreq(), grid.Freq(e.Slow())); thr != want {
			t.Errorf("max level %d: EETL threshold %v, want the 0.75 quantile's %v", maxLevel, thr, want)
		}
	}
	if p.ClassTargets().Len() != 0 {
		t.Errorf("zero params ClassTargets is not the identity")
	}
}

// TestParamsApplyOverrides is the converse: every set field lands.
func TestParamsApplyOverrides(t *testing.T) {
	p := tunedParams()
	base := MonitorConfig{Target: 0.008, Percentile: 99, Interval: 0.1, Span: 0.5}
	got := p.Monitor.Apply(base)
	want := MonitorConfig{
		Target: 0.008, Percentile: 99,
		Interval: 0.05, StepFrac: 0.04, RelaxBelow: 0.85,
		GuardBand: 0.94, CorrectionBand: 0.08, Cap: 1.05,
		Span: 0.8, MinKeep: 40, MaxWindow: 4096, MinSamples: 30,
		Alpha: 0.5,
	}
	if got != want {
		t.Errorf("Apply:\n got %+v\nwant %+v", got, want)
	}
	env := testEnv(gridOf(12), []float64{1e-3, 2e-3})
	if r := mustNew(t, "rubik", p, env).(*Rubik); r.tail.quantile != 0.99 {
		t.Errorf("New ignored the set Rubik quantile: %v", r.tail.quantile)
	}
	if g := mustNew(t, "gemini", p, env).(*Gemini); g.boostFrac != 0.7 {
		t.Errorf("New ignored the set Gemini boost fraction: %v", g.boostFrac)
	}
	if e := mustNew(t, "eetl", p, env).(*EETL); e.Slow() != 3 {
		t.Errorf("slow level at max 12 with frac 0.25 = %d, want 3", e.Slow())
	}
}

// gridOf returns a frequency grid whose top level is maxLevel.
func gridOf(maxLevel int) *cpu.Grid {
	fs := make([]float64, maxLevel+1)
	for i := range fs {
		fs[i] = 1 + 0.1*float64(i)
	}
	g, err := cpu.NewGrid(fs)
	if err != nil {
		panic(err)
	}
	return g
}

// testEnv is a simulator-posture Env on grid with the given profile.
func testEnv(grid *cpu.Grid, profile []float64) Env {
	return Env{QoS: 0.01, Percentile: 99, Grid: grid, ProfileAtMax: profile, Tick: 0.1, Posture: SimPosture}
}

// mustNew is New for parameterizations a test knows are valid.
func mustNew(t testing.TB, name string, p Params, env Env) Policy {
	t.Helper()
	pol, err := New(name, p, env)
	if err != nil {
		t.Fatal(err)
	}
	return pol
}

// TestParamsSHAStability is the fingerprint golden: the canonical
// encoding (and hence the SHA reports use to name a parameterization)
// must not drift across refactors. Regenerating these constants is a
// schema change and should be deliberate.
func TestParamsSHAStability(t *testing.T) {
	if got, want := DefaultParams().SHA(), "edef58f2f1b6cf10"; got != want {
		t.Errorf("DefaultParams SHA = %s, want %s (canonical encoding drifted)", got, want)
	}
	if got, want := tunedParams().SHA(), "702d80f97a096dd2"; got != want {
		t.Errorf("tunedParams SHA = %s, want %s (canonical encoding drifted)", got, want)
	}
}

// TestParamsValidate covers the rejection surface.
func TestParamsValidate(t *testing.T) {
	mk := func(mut func(*Params)) Params {
		p := DefaultParams()
		mut(&p)
		return p
	}
	cases := []struct {
		name    string
		p       Params
		wantErr bool
	}{
		{"default", DefaultParams(), false},
		{"tuned", tunedParams(), false},
		{"future version", mk(func(p *Params) { p.Version = 2 }), true},
		{"negative step", mk(func(p *Params) { p.Monitor.StepFrac = -0.1 }), true},
		{"alpha past one", mk(func(p *Params) { p.Monitor.Alpha = 1.5 }), true},
		{"negative window", mk(func(p *Params) { p.Monitor.MinKeep = -1 }), true},
		{"rubik quantile 1", mk(func(p *Params) { p.Rubik.Quantile = 1 }), true},
		{"eetl slow frac 2", mk(func(p *Params) { p.EETL.SlowFrac = 2 }), true},
		{"unknown dispatch rule", mk(func(p *Params) { p.Dispatch.Rule = "nope" }), true},
		{"known dispatch rule", mk(func(p *Params) { p.Dispatch.Rule = DispatcherNames()[0] }), false},
		{"weighted rule", mk(func(p *Params) { p.Dispatch.Rule = "weighted" }), false},
		{"negative weight", mk(func(p *Params) { p.Dispatch.Weights = []float64{1, -1} }), true},
		{"zero class scale", mk(func(p *Params) { p.ClassScales = []float64{1, 0} }), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.p.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
	// Validate fills an unset version in place.
	var p Params
	if err := p.Validate(); err != nil {
		t.Fatalf("zero params invalid: %v", err)
	}
	if p.Version != ParamsVersion {
		t.Errorf("Validate left Version = %d", p.Version)
	}
}
