// Package core is the public face of the ReTail reproduction: it wires the
// substrates together into the paper's pipeline —
//
//	calibrate (profile requests per frequency, §V-C)
//	  → select features (§IV)
//	  → fit the per-(category × frequency) linear predictor (§V)
//	  → attach a power manager to a simulated server (§VI)
//	  → run measured experiments (§VII)
//
// Use Calibrate to produce a Calibration for an application on a platform,
// its New* methods to construct ReTail and the baselines, and Run to
// execute a measured simulation and collect power/latency results.
package core

import (
	"fmt"
	"math/rand"
	"sync"

	"retail/internal/cpu"
	"retail/internal/features"
	"retail/internal/manager"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Platform describes the simulated server hardware.
type Platform struct {
	Grid    *cpu.Grid
	Power   cpu.PowerModel
	Trans   cpu.TransitionModel
	Workers int
	Seed    int64
}

// DefaultPlatform mirrors the paper's testbed shape: 20 worker cores (one
// socket minus the OS and power-manager cores), 1.0–2.1 GHz DVFS.
func DefaultPlatform() Platform {
	g := cpu.DefaultGrid()
	return Platform{
		Grid:    g,
		Power:   cpu.DefaultPowerModel(g),
		Trans:   cpu.DefaultTransitionModel(),
		Workers: 20,
		Seed:    1,
	}
}

// WithWorkers returns a copy sized to n workers (tests use smaller pools).
func (p Platform) WithWorkers(n int) Platform {
	p.Workers = n
	return p
}

// Calibration is the per-application artifact of the paper's online
// training protocol: the selected features, the fitted linear model, the
// training set that keeps absorbing live samples, and the raw profile the
// baselines need.
type Calibration struct {
	App      workload.App
	Platform Platform

	Selection features.Result
	Layout    predict.FeatureLayout
	Training  *predict.TrainingSet
	Model     *predict.LinearModel

	// BaselineRMSEOverQoS is the healthy-state prediction error, the drift
	// detector's reference point.
	BaselineRMSEOverQoS float64
	// ProfileAtMax holds service times at max frequency for Rubik's
	// offline distribution and Adrenaline's thresholds.
	ProfileAtMax []float64
	// profileFeatures aligns with ProfileAtMax for threshold derivation.
	profileFeatures [][]float64
	// geminiOnce trains the Gemini network for geminiModel/geminiErr: the
	// calibration is shared read-only by concurrently running sweep cells,
	// and the first of them to ask must be the only one to train.
	geminiOnce  sync.Once
	geminiModel *predict.NNModel
	geminiErr   error
}

// Calibrate profiles samplesPerLevel requests at every frequency level (the
// paper's protocol: start at the lowest setting and step up, 1000 requests
// each), runs feature selection on the max-frequency profile, and fits the
// linear model.
func Calibrate(app workload.App, p Platform, samplesPerLevel int, seed int64) (*Calibration, error) {
	if samplesPerLevel <= 0 {
		samplesPerLevel = 1000
	}
	rng := rand.New(rand.NewSource(seed))
	set := predict.NewTrainingSet(samplesPerLevel)
	cal := &Calibration{App: app, Platform: p, Training: set}
	ds := features.Dataset{Specs: app.FeatureSpecs()}
	// Non-max levels only feed TrainingSet.Add, which copies Features, so
	// one scratch request can host every draw there. The max level's
	// requests are retained below (ds.X, profileFeatures) and must stay
	// freshly allocated. GenerateInto consumes the RNG identically to
	// Generate, so the calibration draw is unchanged either way.
	ip, hasIP := app.(workload.InPlaceGenerator)
	var scratch workload.Request
	for lvl := cpu.Level(0); int(lvl) < p.Grid.Levels(); lvl++ {
		f := p.Grid.Freq(lvl)
		for i := 0; i < samplesPerLevel; i++ {
			var r *workload.Request
			if hasIP && lvl != p.Grid.MaxLevel() {
				ip.GenerateInto(&scratch, rng)
				r = &scratch
			} else {
				r = app.Generate(rng)
			}
			svc := float64(r.ServiceAt(f, p.Grid.MaxFreq(), 1))
			set.Add(predict.Sample{Level: lvl, Features: r.Features, Service: svc})
			if lvl == p.Grid.MaxLevel() {
				ds.X = append(ds.X, r.Features)
				ds.Service = append(ds.Service, svc)
				cal.ProfileAtMax = append(cal.ProfileAtMax, svc)
				cal.profileFeatures = append(cal.profileFeatures, r.Features)
			}
		}
	}
	sel, err := features.Select(ds, features.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("core: feature selection: %w", err)
	}
	cal.Selection = sel
	cal.Layout = predict.FeatureLayout{Specs: app.FeatureSpecs(), Selected: sel.Selected}
	model, err := predict.FitLinear(set, cal.Layout, p.Grid.Levels())
	if err != nil {
		return nil, fmt.Errorf("core: initial fit: %w", err)
	}
	cal.Model = model
	if met, err := predict.Evaluate(model, set.All()); err == nil {
		cal.BaselineRMSEOverQoS = met.RMSE / float64(app.QoS().Latency)
	}
	return cal, nil
}

// requestFeatureIndices returns the indices of lateness-zero features.
func (c *Calibration) requestFeatureIndices() []int {
	var idx []int
	for j, s := range c.App.FeatureSpecs() {
		if s.RequestFeature() {
			idx = append(idx, j)
		}
	}
	return idx
}

// NewReTail constructs the ReTail manager from this calibration.
func (c *Calibration) NewReTail() *manager.ReTail {
	return c.NewReTailParams(policy.Params{})
}

// NewReTailParams constructs the ReTail manager under a serializable
// policy parameterization (the zero value keeps every historical
// constant — NewReTail is exactly this with empty params).
func (c *Calibration) NewReTailParams(p policy.Params) *manager.ReTail {
	cfg := manager.DefaultReTailConfig()
	cfg.Layout = c.Layout
	cfg.Model = c.Model
	// Each manager instance gets its own copy of the training rings so
	// live samples from one run never leak into another.
	cfg.Training = c.Training.Clone()
	cfg.Stage1Frac = c.Stage1Frac()
	cfg.Params = p
	m := manager.NewReTail(c.App.QoS(), cfg)
	m.SetDriftBaseline(c.BaselineRMSEOverQoS)
	return m
}

// NewReTailWith constructs the ReTail manager with a substitute predictor
// wrapped around (or replacing) the calibrated model — the chaos runner
// uses this to interpose fault.CorruptingPredictor without the manager
// package learning about fault injection.
func (c *Calibration) NewReTailWith(model predict.Predictor) *manager.ReTail {
	cfg := manager.DefaultReTailConfig()
	cfg.Layout = c.Layout
	cfg.Model = model
	cfg.Training = c.Training.Clone()
	cfg.Stage1Frac = c.Stage1Frac()
	m := manager.NewReTail(c.App.QoS(), cfg)
	m.SetDriftBaseline(c.BaselineRMSEOverQoS)
	return m
}

// Stage1Frac derives the per-request feature-extraction split point: the
// max lateness among selected application features that actually vary
// within the request's category (a PAYMENT transaction does not wait for
// STOCK_LEVEL's distinct-item count). Returns nil when no application
// feature was selected.
func (c *Calibration) Stage1Frac() func(*workload.Request) float64 {
	specs := c.App.FeatureSpecs()
	var appFeats []int // selected features with lateness > 0
	for _, j := range c.Selection.Selected {
		if specs[j].Lateness > 0 {
			appFeats = append(appFeats, j)
		}
	}
	if len(appFeats) == 0 {
		return nil
	}
	var catReq []int // selected categorical request features
	for _, j := range c.Selection.Selected {
		if specs[j].Kind == workload.Categorical && specs[j].RequestFeature() {
			catReq = append(catReq, j)
		}
	}
	globalMax := 0.0
	for _, j := range appFeats {
		if specs[j].Lateness > globalMax {
			globalMax = specs[j].Lateness
		}
	}
	if len(catReq) == 0 {
		gm := globalMax
		return func(*workload.Request) float64 { return gm }
	}
	// Which application features vary within each request-visible
	// category combination?
	key := func(row []float64) string {
		b := make([]byte, 0, len(catReq)*2)
		for _, j := range catReq {
			v := int(row[j])
			b = append(b, byte(v), byte(v>>8), ',')
		}
		return string(b)
	}
	type extreme struct{ min, max []float64 }
	seen := map[string]*extreme{}
	for _, row := range c.profileFeatures {
		k := key(row)
		ex := seen[k]
		if ex == nil {
			ex = &extreme{min: make([]float64, len(appFeats)), max: make([]float64, len(appFeats))}
			for a, j := range appFeats {
				ex.min[a], ex.max[a] = row[j], row[j]
			}
			seen[k] = ex
			continue
		}
		for a, j := range appFeats {
			if row[j] < ex.min[a] {
				ex.min[a] = row[j]
			}
			if row[j] > ex.max[a] {
				ex.max[a] = row[j]
			}
		}
	}
	lateByCombo := map[string]float64{}
	for k, ex := range seen {
		late := 0.0
		for a, j := range appFeats {
			if ex.max[a] > ex.min[a] && specs[j].Lateness > late {
				late = specs[j].Lateness
			}
		}
		lateByCombo[k] = late
	}
	gm := globalMax
	return func(r *workload.Request) float64 {
		if late, ok := lateByCombo[key(r.Features)]; ok {
			return late
		}
		return gm // unseen combination: be conservative
	}
}

// NewRubik constructs the Rubik baseline from the offline profile.
func (c *Calibration) NewRubik() *manager.Rubik {
	return c.NewRubikParams(policy.Params{})
}

// NewRubikParams constructs the Rubik baseline under a serializable
// policy parameterization (zero value = the historical 0.999 quantile).
func (c *Calibration) NewRubikParams(p policy.Params) *manager.Rubik {
	m := manager.NewRubik(c.App.QoS(), c.ProfileAtMax)
	m.TailQuantile = p.Rubik.QuantileOr(0.999)
	return m
}

// GeminiModel trains (once, memoized, safe for concurrent callers) Gemini's
// network on request-arrival features at max frequency. The structure
// defaults to Gemini's published 5×128 when cfg is nil; the first call's
// configuration — and its error, if it fails — wins.
func (c *Calibration) GeminiModel(cfg *nn.Config) (*predict.NNModel, error) {
	c.geminiOnce.Do(func() {
		inputs := c.requestFeatureIndices()
		if len(inputs) == 0 {
			// Degenerate: no request features at all; feed the first feature
			// (as zeros at inference time) so the model predicts a constant.
			inputs = []int{0}
		}
		nncfg := nn.GeminiConfig(len(inputs))
		if cfg != nil {
			nncfg = *cfg
			nncfg.InputDim = len(inputs)
		}
		c.geminiModel, c.geminiErr = predict.FitNN(c.Training, c.Platform.Grid, nncfg, c.Platform.Grid.MaxLevel(), inputs)
		if c.geminiErr != nil {
			c.geminiErr = fmt.Errorf("core: gemini NN fit: %w", c.geminiErr)
		}
	})
	return c.geminiModel, c.geminiErr
}

// NewGemini wraps the (memoized) Gemini network in the two-step-DVFS,
// request-dropping manager.
func (c *Calibration) NewGemini(cfg *nn.Config) (*manager.Gemini, error) {
	return c.NewGeminiParams(cfg, policy.Params{})
}

// NewGeminiParams is NewGemini under a serializable policy
// parameterization (zero value = the historical 0.8 boost checkpoint
// with drop-on-predicted-miss on).
func (c *Calibration) NewGeminiParams(cfg *nn.Config, p policy.Params) (*manager.Gemini, error) {
	model, err := c.GeminiModel(cfg)
	if err != nil {
		return nil, err
	}
	gcfg := manager.DefaultGeminiConfig(model)
	gcfg = ApplyGeminiParams(gcfg, p)
	return manager.NewGemini(c.App.QoS(), c.App.FeatureSpecs(), gcfg), nil
}

// ApplyGeminiParams overlays the serializable Gemini posture knobs onto
// a (possibly shared-model) GeminiConfig. Exported because the fleet
// runtime clones per-node managers from a trained prototype's config and
// must apply the same overlay.
func ApplyGeminiParams(gcfg manager.GeminiConfig, p policy.Params) manager.GeminiConfig {
	gcfg.BoostFrac = p.Gemini.BoostFracOr(gcfg.BoostFrac)
	if p.Gemini.KeepOnPredictedMiss {
		gcfg.DropOnPredictedMiss = false
	}
	return gcfg
}

// NewAdrenaline derives the classification baseline: the request feature
// with the highest standalone correlation degree becomes the classifier.
func (c *Calibration) NewAdrenaline() *manager.Adrenaline {
	best, bestCD := -1, 0.0
	for _, j := range c.requestFeatureIndices() {
		cd := c.Selection.IndividualCD[j]
		if cd == cd && cd > bestCD { // cd == cd filters NaN
			best, bestCD = j, cd
		}
	}
	var vals []float64
	if best >= 0 {
		for _, row := range c.profileFeatures {
			vals = append(vals, row[best])
		}
	}
	return manager.NewAdrenaline(c.App.QoS(), c.Platform.Grid, best, vals, c.ProfileAtMax)
}

// NewManagerParams constructs one of the four managed DVFS policies by
// name under a serializable policy parameterization — the single
// construction path the fleet and the tuner share, so "policy × params"
// means the same thing everywhere. gemNN only matters for "gemini"
// (nil = the published structure).
func (c *Calibration) NewManagerParams(name string, gemNN *nn.Config, p policy.Params) (manager.Manager, error) {
	switch name {
	case "retail":
		return c.NewReTailParams(p), nil
	case "rubik":
		return c.NewRubikParams(p), nil
	case "gemini":
		return c.NewGeminiParams(gemNN, p)
	case "eetl":
		return c.NewEETLParams(p), nil
	}
	return nil, fmt.Errorf("core: unknown managed policy %q (have retail, rubik, gemini, eetl)", name)
}

// NewPegasus constructs the coarse-grained controller.
func (c *Calibration) NewPegasus() *manager.Pegasus { return manager.NewPegasus(c.App.QoS()) }

// NewMaxFreq constructs the unmanaged baseline.
func (c *Calibration) NewMaxFreq() *manager.MaxFreq { return manager.NewMaxFreq() }

var maxLoadCache sync.Map // "app/workers" → float64 RPS

// CalibrateMaxLoad finds the application's "100% load" as the paper
// defines it: the maximum request rate at which the *default system* (all
// cores at max frequency, no management) still meets QoS. It binary
// searches over RPS with short measured runs and memoizes per
// (application, worker count).
func CalibrateMaxLoad(app workload.App, p Platform, seed int64) float64 {
	key := fmt.Sprintf("%s/%d", app.Name(), p.Workers)
	if v, ok := maxLoadCache.Load(key); ok {
		return v.(float64)
	}
	mean := workload.MeanServiceAtMax(app)
	// The search is capped at 80% utilization: the paper reports that 100%
	// of max load corresponds to 60–80% CPU utilization for these
	// open-loop workloads.
	lo, hi := 0.05*float64(p.Workers)/mean, 0.80*float64(p.Workers)/mean
	meets := func(rps float64) bool {
		dur := RecommendedDuration(app, rps)
		res, err := Run(RunConfig{
			App: app, Platform: p, Manager: manager.NewMaxFreq(),
			RPS: rps, Warmup: dur / 5, Duration: dur, Seed: seed,
		})
		if err != nil || res.Completed == 0 {
			return false
		}
		// A guard band keeps "100% load" robust across seeds and longer
		// horizons, where p99 queueing keeps widening.
		return res.TailAtQoSPct <= 0.90*res.QoSTarget
	}
	for i := 0; i < 7; i++ {
		mid := (lo + hi) / 2
		if meets(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	maxLoadCache.Store(key, lo)
	return lo
}

// RecommendedDuration returns a measurement window long enough for a
// stable tail estimate: at least ~4000 completions and many multiples of
// the mean service time, clamped to keep fast apps cheap to simulate.
func RecommendedDuration(app workload.App, rps float64) sim.Duration {
	mean := workload.MeanServiceAtMax(app)
	d := sim.Duration(4000 / rps)
	if m := sim.Duration(60 * mean); m > d {
		d = m
	}
	if d < 5 {
		d = 5
	}
	if d > 600 {
		d = 600
	}
	return d
}

// RunConfig describes one measured simulation.
type RunConfig struct {
	App      workload.App
	Platform Platform
	Manager  manager.Manager
	RPS      float64
	Warmup   sim.Duration // excluded from all measurements
	Duration sim.Duration // measurement window
	Seed     int64
	// Spec, when non-nil, replaces the single Poisson generator with the
	// spec's full client population (cohorts × arrival processes ×
	// envelopes; see workload.Spec). The spec must be single-app and match
	// App. RPS > 0 rescales the spec's aggregate rate (ScaledTo); RPS 0
	// runs the spec's own rates. The spec's class table installs per-SLO-
	// class QoS′ targets on any manager exposing SetClassTargets.
	Spec *workload.Spec
	// Record, when non-nil, taps every generated arrival into the trace
	// (workload.Trace.RecordSink) on its way to the server — warmup
	// included, so a replayed trace reproduces the whole run.
	Record *workload.Trace
	// Replay, when non-nil, substitutes the recorded stream for any
	// generator: arrivals, features and service demands come from the
	// trace bit-for-bit and no workload RNG is consumed. Mutually
	// exclusive with Spec; the trace's class table installs per-SLO-class
	// targets exactly as a spec's would.
	Replay *workload.Trace
	// CollectSamples retains per-request (level, features, service)
	// samples from the measurement window for offline RMSE evaluation.
	CollectSamples bool
	// Events, when non-nil, is invoked once at every listed time (after
	// warmup offset is NOT applied; times are absolute virtual times).
	Events []TimedEvent
	// Instrument, when non-nil, runs after the manager is attached and
	// before load starts — the place to chain observers (trace flight
	// recorders, telemetry hook adapters) around the manager's hooks
	// without core depending on the observer packages.
	Instrument func(e *sim.Engine, s *server.Server)
}

// TimedEvent triggers arbitrary environment changes mid-run (interference,
// load steps).
type TimedEvent struct {
	At sim.Time
	Do func(e *sim.Engine, s *server.Server)
}

// Result aggregates a run's measurements over the window.
type Result struct {
	Manager   string
	App       string
	RPS       float64
	AvgPowerW float64
	EnergyJ   float64

	Completed int
	Dropped   int // within the measurement window
	// Violations counts measured completions whose sojourn exceeded the
	// QoS latency. The QoS verdict is about the tail percentile; this is
	// the raw per-request count the tuner's scoring penalizes.
	Violations int

	MeanLatency  float64 // seconds, sojourn
	P50, P95     float64
	P99          float64
	TailAtQoSPct float64 // measured tail at the app's QoS percentile
	QoSTarget    float64
	QoSMet       bool

	Transitions int
	Samples     []predict.Sample // when CollectSamples

	// Classes breaks the window down per SLO class when the run was
	// driven by a cohort spec or a recorded trace with a class table
	// (nil otherwise). Order follows the spec's class table.
	Classes []ClassResult
}

// ClassResult is one SLO class's slice of the measurement window. The
// quantiles come from a stats.HDR histogram over nanosecond sojourns
// (≤1.6% relative bucket error), so per-class reporting stays O(1) per
// completion regardless of how skewed the class mix is.
type ClassResult struct {
	Class     string  // class name from the spec/trace table
	QoSScale  float64 // the class's QoS′ multiplier
	Completed int
	Dropped   int

	P50, P95, P99 float64 // seconds
	TailAtQoSPct  float64 // tail at the app's QoS percentile
	QoSTarget     float64 // QoSScale × the app's QoS latency
	QoSMet        bool
}

// Run executes warmup + measurement and returns the aggregated result.
func Run(cfg RunConfig) (*Result, error) {
	if cfg.App == nil || cfg.Manager == nil {
		return nil, fmt.Errorf("core: RunConfig needs App and Manager")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("core: RunConfig needs positive Duration")
	}
	if cfg.RPS <= 0 && cfg.Spec == nil && cfg.Replay == nil {
		return nil, fmt.Errorf("core: RunConfig needs positive RPS (or a Spec/Replay source)")
	}
	if cfg.Spec != nil && cfg.Replay != nil {
		return nil, fmt.Errorf("core: Spec and Replay are mutually exclusive")
	}
	// The workload source's class table, when present, drives per-class
	// QoS′ targets and per-class reporting.
	var classNames []string
	var classScales []float64
	switch {
	case cfg.Replay != nil:
		apps := cfg.Replay.Header.Apps
		if len(apps) != 1 || apps[0] != cfg.App.Name() {
			return nil, fmt.Errorf("core: replay trace apps %v do not match app %q", apps, cfg.App.Name())
		}
		classNames, classScales = cfg.Replay.Header.Classes, cfg.Replay.Header.Scales
	case cfg.Spec != nil:
		specApp, err := cfg.Spec.SingleApp()
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if specApp.Name() != cfg.App.Name() {
			return nil, fmt.Errorf("core: spec %q targets app %q, run configured for %q", cfg.Spec.Name, specApp.Name(), cfg.App.Name())
		}
		classNames, classScales = cfg.Spec.Classes()
	}
	if len(classScales) > 0 {
		if ct, ok := cfg.Manager.(interface{ SetClassTargets(policy.ClassTargets) }); ok {
			ct.SetClassTargets(policy.NewClassTargets(classScales))
		}
	}
	e := sim.NewEngine()
	srv := server.New(server.Config{
		App:     cfg.App,
		Workers: cfg.Platform.Workers,
		Grid:    cfg.Platform.Grid,
		Power:   cfg.Platform.Power,
		Trans:   cfg.Platform.Trans,
		Seed:    cfg.Platform.Seed ^ cfg.Seed,
	})
	cfg.Manager.Attach(e, srv)
	if cfg.Instrument != nil {
		cfg.Instrument(e, srv)
	}

	// Resolve the effective offered load up front: it sizes the latency
	// and trace buffers and is what the result reports.
	spec := cfg.Spec
	if spec != nil && cfg.RPS > 0 {
		spec = spec.ScaledTo(cfg.RPS)
	}
	rps := cfg.RPS
	switch {
	case cfg.Replay != nil:
		if rps <= 0 {
			rps = float64(len(cfg.Replay.Records)) / float64(cfg.Warmup+cfg.Duration)
		}
	case spec != nil:
		rps = spec.TotalRPS()
	}

	qos := cfg.App.QoS()
	lat := stats.NewLatencyTracker(0, true)
	lat.ReserveAll(reserveFor(rps * float64(cfg.Duration)))
	// Requests are pooled exactly as in cluster.RunFleet: the sinks below
	// are the end of every request's life (the manager's Complete hook,
	// which releases its per-request state, runs first), so retired nodes
	// recycle through the generator. Identical values either way — only
	// allocation counts change.
	pool := &workload.RequestPool{}
	measuring := false
	var samples []predict.Sample
	droppedInWindow := 0
	// Per-class histograms: HDR over nanosecond sojourns, one per class
	// table entry.
	var classHist []*stats.HDR
	var classDropped []int
	if len(classNames) > 0 {
		classHist = make([]*stats.HDR, len(classNames))
		for i := range classHist {
			classHist[i] = &stats.HDR{}
		}
		classDropped = make([]int, len(classNames))
	}
	violations := 0
	srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
		if measuring {
			lat.Add(float64(r.Sojourn()))
			if r.Sojourn() > qos.Latency {
				violations++
			}
			if c := int(r.SLOClass); c < len(classHist) {
				classHist[c].Record(int64(float64(r.Sojourn()) * 1e9))
			}
			if cfg.CollectSamples {
				// The request's Features backing is about to be recycled.
				samples = append(samples, predict.Sample{
					Level:    cpu.Level(r.ServedLevel),
					Features: append([]float64(nil), r.Features...),
					Service:  float64(r.ServiceTime()),
				})
			}
		}
		pool.Put(r)
	}
	srv.DroppedSink = func(en *sim.Engine, r *workload.Request) {
		if measuring {
			droppedInWindow++
			if c := int(r.SLOClass); c < len(classDropped) {
				classDropped[c]++
			}
		}
		pool.Put(r)
	}

	sink := srv.Submit
	if cfg.Record != nil {
		// The tap sees warmup arrivals too.
		cfg.Record.Reserve(len(cfg.Record.Records) + reserveFor(rps*float64(cfg.Warmup+cfg.Duration)))
		sink = cfg.Record.RecordSink(sink)
	}
	var stopGen func()
	switch {
	case cfg.Replay != nil:
		pl := workload.NewPlayer(cfg.Replay, sink)
		pl.Pool = pool
		pl.Start(e)
		stopGen = pl.Stop
	case spec != nil:
		cg := workload.NewCohortGenerator(spec, cfg.Seed, sink)
		cg.Pool = pool
		cg.Start(e)
		stopGen = cg.Stop
	default:
		gen := workload.NewGenerator(cfg.App, cfg.RPS, cfg.Seed, sink)
		gen.Pool = pool
		gen.Start(e)
		stopGen = gen.Stop
	}
	for _, ev := range cfg.Events {
		ev := ev
		e.At(ev.At, "core.event", func(en *sim.Engine) { ev.Do(en, srv) })
	}
	e.At(cfg.Warmup, "core.measure", func(en *sim.Engine) {
		measuring = true
		srv.Socket.ResetEnergy(en.Now())
	})
	end := cfg.Warmup + cfg.Duration
	e.Run(end)
	stopGen()

	res := &Result{
		Manager:     cfg.Manager.Name(),
		App:         cfg.App.Name(),
		RPS:         rps,
		AvgPowerW:   srv.Socket.AveragePowerW(end),
		EnergyJ:     srv.Socket.EnergyJoules(end),
		Completed:   lat.Count(),
		Dropped:     droppedInWindow,
		Violations:  violations,
		QoSTarget:   float64(qos.Latency),
		Transitions: srv.Socket.Transitions(),
		Samples:     samples,
	}
	if lat.Count() > 0 {
		qs := lat.Quantiles(0.50, 0.95, 0.99, qos.Percentile/100)
		res.P50, res.P95, res.P99, res.TailAtQoSPct = qs[0], qs[1], qs[2], qs[3]
		res.MeanLatency = lat.Mean()
		res.QoSMet = res.TailAtQoSPct <= res.QoSTarget
	}
	for i, h := range classHist {
		scale := 1.0
		if i < len(classScales) {
			scale = classScales[i]
		}
		cr := ClassResult{
			Class:     classNames[i],
			QoSScale:  scale,
			Completed: int(h.Count()),
			Dropped:   classDropped[i],
			QoSTarget: scale * float64(qos.Latency),
		}
		if h.Count() > 0 {
			const ns = 1e-9
			cr.P50 = float64(h.Quantile(0.50)) * ns
			cr.P95 = float64(h.Quantile(0.95)) * ns
			cr.P99 = float64(h.Quantile(0.99)) * ns
			cr.TailAtQoSPct = float64(h.Quantile(qos.Percentile/100)) * ns
			cr.QoSMet = cr.TailAtQoSPct <= cr.QoSTarget
		}
		res.Classes = append(res.Classes, cr)
	}
	return res, nil
}

// reserveFor turns an expected event count (rate × horizon) into a buffer
// capacity: 3 % + 64 of headroom covers the count's own spread (√n for
// Poisson arrivals, a few times that for the bursty processes), so a
// presized buffer does not regrow once near its end.
func reserveFor(expect float64) int {
	n := int(expect)
	return n + n/32 + 64
}

// DropRate returns dropped/(dropped+completed) over the window.
func (r *Result) DropRate() float64 {
	total := r.Dropped + r.Completed
	if total == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(total)
}

// NewEETL constructs the progress-threshold baseline (related work §II)
// from the offline profile.
func (c *Calibration) NewEETL() *manager.EETL {
	return c.NewEETLParams(policy.Params{})
}

// NewEETLParams constructs the EETL baseline under a serializable policy
// parameterization (zero value = the historical 0.75 quantile at slow
// level MaxLevel/2).
func (c *Calibration) NewEETLParams(p policy.Params) *manager.EETL {
	grid := c.Platform.Grid
	slow := cpu.Level(p.EETL.SlowLevel(int(grid.MaxLevel())))
	return manager.NewEETLAt(c.App.QoS(), grid, c.ProfileAtMax, p.EETL.QuantileOr(0.75), slow)
}
