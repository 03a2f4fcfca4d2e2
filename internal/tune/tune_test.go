package tune

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/workload"
)

var updateTuneGolden = flag.Bool("update", false, "rewrite the tune golden file")

// TestSpecCandidates pins the enumeration contract: grid mode walks the
// cartesian product with the last axis fastest, min/max/steps expand
// evenly, and random mode is a pure function of the spec seed.
func TestSpecCandidates(t *testing.T) {
	grid := &Spec{
		Mode: "grid",
		Axes: []Axis{
			{Field: "monitor.guard_band", Values: []float64{0.9, 1.0}},
			{Field: "monitor.alpha", Min: 0.2, Max: 0.8, Steps: 3},
		},
	}
	cands, err := grid.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	wantVals := [][]float64{
		{0.9, 0.2}, {0.9, 0.5}, {0.9, 0.8},
		{1.0, 0.2}, {1.0, 0.5}, {1.0, 0.8},
	}
	if len(cands) != len(wantVals) {
		t.Fatalf("got %d candidates, want %d", len(cands), len(wantVals))
	}
	for i, c := range cands {
		if c.Index != i {
			t.Errorf("candidate %d has Index %d", i, c.Index)
		}
		for j, v := range wantVals[i] {
			if c.Values[j] != v {
				t.Errorf("candidate %d values = %v, want %v", i, c.Values, wantVals[i])
				break
			}
		}
	}
	if g := cands[1].Params.Monitor.GuardBand; g != 0.9 {
		t.Errorf("candidate 1 guard band = %v, want 0.9", g)
	}
	if a := cands[1].Params.Monitor.Alpha; a != 0.5 {
		t.Errorf("candidate 1 alpha = %v, want 0.5", a)
	}

	rand := &Spec{
		Mode: "random", Samples: 8, Seed: 11,
		Axes: []Axis{
			{Field: "rubik.quantile", Min: 0.9, Max: 0.9999},
			{Field: "monitor.cap", Min: 0.8, Max: 1.2},
		},
	}
	c1, err := rand.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := rand.Candidates()
	if err != nil {
		t.Fatal(err)
	}
	if len(c1) != 8 {
		t.Fatalf("random mode produced %d candidates, want 8", len(c1))
	}
	for i := range c1 {
		for j := range c1[i].Values {
			if c1[i].Values[j] != c2[i].Values[j] {
				t.Fatalf("random candidates differ between enumerations at %d/%d", i, j)
			}
			a := rand.Axes[j]
			if v := c1[i].Values[j]; v < a.Min || v >= a.Max {
				t.Errorf("candidate %d %s = %v outside [%v, %v)", i, a.Field, v, a.Min, a.Max)
			}
		}
	}
}

// TestSpecValidation covers the rejection surface, including candidates
// whose assigned values fail params validation.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"bad mode", Spec{Mode: "exhaustive", Axes: []Axis{{Field: "monitor.alpha", Values: []float64{0.5}}}}},
		{"no axes", Spec{Mode: "grid"}},
		{"unknown field", Spec{Mode: "grid", Axes: []Axis{{Field: "monitor.warp", Values: []float64{1}}}}},
		{"repeated field", Spec{Mode: "grid", Axes: []Axis{
			{Field: "monitor.alpha", Values: []float64{0.5}},
			{Field: "monitor.alpha", Values: []float64{0.6}},
		}}},
		{"grid without points", Spec{Mode: "grid", Axes: []Axis{{Field: "monitor.alpha"}}}},
		{"grid values and bounds", Spec{Mode: "grid", Axes: []Axis{{Field: "monitor.alpha", Values: []float64{0.5}, Steps: 3, Min: 0, Max: 1}}}},
		{"random without samples", Spec{Mode: "random", Axes: []Axis{{Field: "monitor.alpha", Min: 0.1, Max: 0.9}}}},
		{"random with values", Spec{Mode: "random", Samples: 4, Axes: []Axis{{Field: "monitor.alpha", Values: []float64{0.5}}}}},
		{"inverted bounds", Spec{Mode: "random", Samples: 4, Axes: []Axis{{Field: "monitor.alpha", Min: 0.9, Max: 0.1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.spec.Validate(); err == nil {
				t.Error("Validate accepted a bad spec")
			}
		})
	}
	// A spec whose grid contains a params-invalid point fails at
	// enumeration, before any simulation.
	bad := &Spec{Mode: "grid", Axes: []Axis{{Field: "monitor.alpha", Values: []float64{0.5, 1.5}}}}
	if _, err := bad.Candidates(); err == nil {
		t.Error("Candidates accepted an alpha > 1 grid point")
	}
	// Strict parse rejects unknown spec fields.
	if _, err := ParseSpec(strings.NewReader(`{"mode": "grid", "axez": []}`)); err == nil {
		t.Error("ParseSpec accepted an unknown field")
	}
}

// Shared twin fixture: one calibration and one recorded trace serve all
// replay tests (recording is the expensive part).
var (
	fixtureOnce  sync.Once
	fixtureErr   error
	fixtureTrace *workload.Trace
	fixtureCal   *core.Calibration
	fixturePlat  core.Platform
)

const fixtureSeed = 7

func twinFixture(t *testing.T) (*workload.Trace, *core.Calibration, core.Platform) {
	fixtureOnce.Do(func() {
		app := workload.ByName("moses")
		fixturePlat = core.DefaultPlatform().WithWorkers(8)
		fixtureCal, fixtureErr = core.Calibrate(app, fixturePlat, 400, fixtureSeed)
		if fixtureErr != nil {
			return
		}
		rate := core.CalibrateMaxLoad(app, fixturePlat, fixtureSeed) * 0.6
		spec := workload.BuiltinSpec("steady-poisson").ScaledTo(rate)
		fixtureTrace = workload.NewTrace(spec, fixtureSeed)
		_, fixtureErr = core.Run(core.RunConfig{
			App: app, Platform: fixturePlat, Manager: fixtureCal.NewReTail(),
			Spec: spec, Record: fixtureTrace,
			Warmup: 1, Duration: 5, Seed: fixtureSeed,
		})
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	if len(fixtureTrace.Records) == 0 {
		t.Fatal("fixture trace recorded no requests")
	}
	return fixtureTrace, fixtureCal, fixturePlat
}

func goldenSpec() *Spec {
	return &Spec{
		Version: SpecVersion, Name: "guard-band-sweep", Mode: "grid",
		Axes: []Axis{
			{Field: "monitor.guard_band", Values: []float64{0.9, 0.96, 1.02}},
			{Field: "monitor.alpha", Values: []float64{0.35, 1.0}},
		},
	}
}

// TestTuneGolden pins the whole loop: the winners table is byte-stable
// across -parallel settings and matches the committed golden, and the
// winning params replayed standalone reproduce the winner's scored
// metrics exactly — the property that makes the emitted params.json a
// faithful artifact rather than a summary.
func TestTuneGolden(t *testing.T) {
	trace, cal, plat := twinFixture(t)
	cfg := Config{
		Trace: trace, Spec: goldenSpec(), Manager: "retail",
		Workers: 8, SamplesPerLevel: 400, Seed: fixtureSeed, Parallel: 1,
	}
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Parallel = 8
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := seq.Render()
	if got != par.Render() {
		t.Fatal("winners table differs between -parallel 1 and 8")
	}
	seqRep, err := seq.Report(fixtureSeed).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	parRep, err := par.Report(fixtureSeed).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqRep, parRep) {
		t.Fatal("tune report differs between -parallel 1 and 8")
	}

	if n := len(seq.Candidates); n != 6 {
		t.Fatalf("got %d candidates, want 6", n)
	}
	w := seq.Winner()
	if w.Rank != 1 || w.Completed == 0 {
		t.Fatalf("winner rank %d, completed %d", w.Rank, w.Completed)
	}

	// Round-trip the winner through its canonical params.json and replay
	// it standalone: the scored metrics must reproduce exactly.
	pb, err := w.Params.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := policy.ParseParams(bytes.NewReader(pb))
	if err != nil {
		t.Fatalf("winning params.json does not re-parse: %v", err)
	}
	m, err := cal.NewManagerParams("retail", nil, reparsed)
	if err != nil {
		t.Fatal(err)
	}
	span := sim.Duration(trace.Records[len(trace.Records)-1].Arrival)
	res, err := core.Run(core.RunConfig{
		App: cal.App, Platform: plat, Manager: m,
		Replay: trace, Warmup: span / 6, Duration: span - span/6,
		Seed: fixtureSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.EnergyJ != w.EnergyJ || res.P99 != w.P99 || res.Violations != w.Violations {
		t.Errorf("standalone replay of the winning params diverged: energy %v vs %v, p99 %v vs %v, violations %d vs %d",
			res.EnergyJ, w.EnergyJ, res.P99, w.P99, res.Violations, w.Violations)
	}

	golden := filepath.Join("testdata", "tune_golden.txt")
	if *updateTuneGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl := strings.Split(got, "\n")
		wl := strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("tune render diverges from golden at line %d:\n got: %q\nwant: %q\n(run with -update after intentional changes)", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("tune render diverges from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestTuneScoring pins the objective's shape without simulation.
func TestTuneScoring(t *testing.T) {
	clean := &core.Result{Completed: 100, EnergyJ: 50, P99: 0.01}
	if got, want := score(clean), 50*0.01; got != want {
		t.Errorf("clean score = %v, want %v", got, want)
	}
	violated := &core.Result{Completed: 100, EnergyJ: 50, P99: 0.01, Violations: 3}
	if got, want := score(violated), 50*0.01*4; got != want {
		t.Errorf("violated score = %v, want %v", got, want)
	}
	if s := score(&core.Result{}); !(s > 0 && s > 1e300) {
		t.Errorf("empty replay should score +Inf, got %v", s)
	}
}

// Tuning gemini fans the candidates out over one shared calibration, and
// every cell asks it for the network as it starts. Under -race this is the
// check that they neither race on the memo nor train it per cell; the
// ranking must not depend on which cell got there first.
func TestTuneGeminiSharesOneNetwork(t *testing.T) {
	trace, _, _ := twinFixture(t)
	small := nn.TunedConfig(1, 2, 32, 30, 32) // slow enough that the cells overlap in training
	cfg := Config{
		Trace: trace, Manager: "gemini", GeminiNN: &small,
		Spec: &Spec{
			Version: SpecVersion, Name: "boost-sweep", Mode: "grid",
			Axes: []Axis{{Field: "gemini.boost_frac", Values: []float64{0.6, 0.7, 0.8, 0.9}}},
		},
		Workers: 8, SamplesPerLevel: 400, Seed: fixtureSeed, Parallel: 4,
	}
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Candidates) != 4 {
		t.Fatalf("%d candidates, want 4", len(par.Candidates))
	}
	cfg.Parallel = 1
	seq, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Render() != seq.Render() {
		t.Fatal("gemini winners table differs between -parallel 4 and 1")
	}
}
