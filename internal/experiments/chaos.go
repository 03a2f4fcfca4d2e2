package experiments

import (
	"fmt"
	"sort"
	"strings"

	"retail/internal/core"
	"retail/internal/fault"
	"retail/internal/manager"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/trace"
	"retail/internal/workload"
)

// ---------------------------------------------------------------------------
// Chaos — named fault plans replayed in the simulator against ReTail and
// the baselines, with a deterministic degradation report.
//
// The simulator hosts the *model-level* fault sites: predictor-output
// corruption (SitePredict), workload drift steps (plan Drift → the
// server's interference hook) and overload bursts (plan Burst → the
// generator's arrival rate). The wall-clock sites — DVFS write failures
// and executor stalls — live in internal/live and are exercised by
// experiments.RunLiveChaos and the retail chaos command; see DESIGN.md §9
// for the site ↔ runtime matrix.
//
// Every number in the report is deterministic for a fixed Config.Seed, so
// `make golden-check` pins the rendered output against a golden file.

// chaosSimPlans are the built-in plans with simulator-side content.
func chaosSimPlans() []string {
	return []string{"drift-step", "overload-burst", "predictor-skew"}
}

// ChaosCell is one (plan × manager) pairing: the same load replayed with
// and without the fault plan.
type ChaosCell struct {
	Plan    string
	Manager string

	QoSTarget float64
	BaseTail  float64 // tail at the QoS percentile, healthy run
	FaultTail float64 // same, under the fault plan
	BaseQoS   bool
	FaultQoS  bool

	BaseEnergyJ    float64
	FaultEnergyJ   float64
	EnergyDeltaPct float64 // (fault − base) / base

	Completed int
	Dropped   int // Gemini's predicted-miss drops under the plan
	Retrains  int // ReTail's drift-triggered refits under the plan

	// Injected counts per fired site, in Site order (index = fault.Site).
	Injected [fault.NumSites]uint64
}

// ChaosResult is the full simulator chaos matrix plus the trace audit of
// ReTail's faulted runs (violation attribution: queueing vs mispredict vs
// decision delay — under predictor-skew the mass moves to mispredict
// until the retrain lands).
type ChaosResult struct {
	App string
	RPS float64
	// Spec names the cohort spec driving arrivals when the matrix ran
	// under ChaosAllBursty ("" = the classic Poisson generator).
	Spec  string
	Cells []ChaosCell
	// Audits maps plan name → rendered trace.Audit for ReTail's faulted
	// run under that plan.
	Audits map[string]string
}

// chaosManagers returns the evaluated managers in report order.
func chaosManagers() []string { return []string{"retail", "rubik", "gemini"} }

// ChaosAll replays every simulator-side plan against ReTail, Rubik and
// Gemini on Moses at 40% load over the canonical 10-second timeline
// (2 s warmup + 10 s measured, matching the plan windows).
func ChaosAll(cfg Config) (*ChaosResult, error) {
	return chaosAll(cfg, nil)
}

// ChaosAllBursty is the nightly bursty-arrival leg: the same plan ×
// manager matrix, but arrivals come from the overload-mmpp cohort spec —
// nearly all load on a heavily bursty MMPP population — instead of the
// i.i.d. Poisson generator. Overload windows then arrive as correlated
// trains, the arrival shape the PR 4 degradation ladder (retrain, shed,
// clamp — never crash) must survive.
func ChaosAllBursty(cfg Config) (*ChaosResult, error) {
	spec := workload.BuiltinSpec("overload-mmpp")
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("chaos: overload-mmpp spec: %w", err)
	}
	return chaosAll(cfg, spec)
}

func chaosAll(cfg Config, spec *workload.Spec) (*ChaosResult, error) {
	app := workload.ByName("moses")
	cal, maxLoad, err := calibrate(cfg, app, cfg.Platform)
	if err != nil {
		return nil, err
	}
	rps := maxLoad * 0.4
	res := &ChaosResult{App: app.Name(), RPS: rps, Audits: map[string]string{}}
	if spec != nil {
		res.Spec = spec.Name
		spec = spec.ScaledTo(rps)
	}

	// One healthy baseline per manager, shared across plans.
	base := map[string]*chaosRun{}
	for _, mgr := range chaosManagers() {
		r, err := chaosRunOnce(cfg, cal, mgr, rps, spec, nil)
		if err != nil {
			return nil, fmt.Errorf("chaos: baseline %s: %w", mgr, err)
		}
		base[mgr] = r
	}
	for _, planName := range chaosSimPlans() {
		plan, err := fault.PlanByName(planName)
		if err != nil {
			return nil, err
		}
		for _, mgr := range chaosManagers() {
			fr, err := chaosRunOnce(cfg, cal, mgr, rps, spec, plan)
			if err != nil {
				return nil, fmt.Errorf("chaos: %s/%s: %w", planName, mgr, err)
			}
			b := base[mgr]
			cell := ChaosCell{
				Plan: planName, Manager: mgr,
				QoSTarget: float64(app.QoS().Latency),
				BaseTail:  b.tail, FaultTail: fr.tail,
				BaseQoS: b.qosMet, FaultQoS: fr.qosMet,
				BaseEnergyJ: b.energyJ, FaultEnergyJ: fr.energyJ,
				Completed: fr.completed, Dropped: fr.dropped,
				Retrains: fr.retrains, Injected: fr.injected,
			}
			if b.energyJ > 0 {
				cell.EnergyDeltaPct = (fr.energyJ - b.energyJ) / b.energyJ
			}
			res.Cells = append(res.Cells, cell)
			if mgr == "retail" && fr.audit != "" {
				res.Audits[planName] = fr.audit
			}
		}
	}
	return res, nil
}

// chaosRun is one simulated replay's raw measurements.
type chaosRun struct {
	tail      float64
	qosMet    bool
	energyJ   float64
	completed int
	dropped   int
	retrains  int
	injected  [fault.NumSites]uint64
	audit     string
}

// chaosManager builds one chaos cell's manager under cfg.Params — the same
// construction for the healthy and the faulted cell, so the two compare
// one configuration. A non-nil corrupt interposes its predictor
// corruption between calibration and ReTail's decision loop; a retrain
// refits a clean linear model and discards the wrapper — exactly the
// documented recovery.
func chaosManager(cfg Config, cal *core.Calibration, name string, corrupt *fault.Injector) (manager.Manager, error) {
	m, err := cal.NewManagerParams(name, cfg.GeminiNN, cfg.Params)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if rt, ok := m.(*manager.ReTail); ok && corrupt != nil {
		rt.SetModel(fault.CorruptingPredictor{Inner: cal.Model, Inj: corrupt})
	}
	return m, nil
}

// chaosRunOnce replays one plan (nil = healthy baseline) against one
// manager. The plan's clock is the simulator clock, so the canonical
// 10-second timeline maps 1:1 onto virtual time: warmup ends at t=2 s and
// the measured window closes at t=12 s. A non-nil spec (already scaled to
// rps) swaps the Poisson generator for the cohort population; plan
// overload windows then scale every client's instantaneous rate instead
// of resetting a single Poisson rate.
func chaosRunOnce(cfg Config, cal *core.Calibration, mgrName string, rps float64, spec *workload.Spec, plan *fault.Plan) (*chaosRun, error) {
	const (
		warmup  = sim.Time(2)
		horizon = sim.Time(12)
	)
	app := cal.App
	e := sim.NewEngine()
	inj := fault.New(cfg.Seed, plan).WithClock(func() float64 { return float64(e.Now()) })

	var corrupt *fault.Injector
	if plan != nil {
		corrupt = inj
	}
	mgr, err := chaosManager(cfg, cal, mgrName, corrupt)
	if err != nil {
		return nil, err
	}
	rt, _ := mgr.(*manager.ReTail)

	srv := serverFor(cfg.Platform, app, cfg.Seed)
	mgr.Attach(e, srv)
	var flight *trace.FlightRecorder
	if rt != nil && plan != nil {
		flight = trace.NewFlightRecorder(trace.FlightRecorderConfig{QoS: app.QoS()})
		srv.Observe(flight)
	}

	lat := stats.NewLatencyTracker(0, true)
	measuring := false
	dropped := 0
	srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
		if measuring {
			lat.Add(float64(r.Sojourn()))
		}
	}
	srv.DroppedSink = func(en *sim.Engine, r *workload.Request) {
		if measuring {
			dropped++
		}
	}

	var stopGen func()
	var setBurst func(factor float64)
	if spec != nil {
		gen := workload.NewCohortGenerator(spec, cfg.Seed+5, srv.Submit)
		gen.Start(e)
		stopGen = gen.Stop
		setBurst = gen.SetRateScale
	} else {
		gen := workload.NewGenerator(app, rps, cfg.Seed+5, srv.Submit)
		gen.Start(e)
		stopGen = gen.Stop
		setBurst = func(factor float64) { gen.SetRPS(rps * factor) }
	}
	if plan != nil {
		if b := plan.Burst; b != nil && b.Factor > 0 {
			factor := b.Factor
			e.At(sim.Time(b.From), "chaos.burst", func(en *sim.Engine) { setBurst(factor) })
			e.At(sim.Time(b.Until), "chaos.burst-end", func(en *sim.Engine) { setBurst(1) })
		}
		if d := plan.Drift; d != nil && d.Factor > 0 {
			factor := d.Factor
			e.At(sim.Time(d.At), "chaos.drift", func(en *sim.Engine) {
				srv.SetInterference(en, factor)
				inj.Record(fault.SiteDrift, 1)
			})
			if d.RecoverAt > 0 {
				e.At(sim.Time(d.RecoverAt), "chaos.drift-recover", func(en *sim.Engine) {
					srv.SetInterference(en, 1)
				})
			}
		}
	}
	e.At(warmup, "chaos.measure", func(en *sim.Engine) {
		measuring = true
		srv.Socket.ResetEnergy(en.Now())
	})
	e.Run(horizon)
	stopGen()

	qos := app.QoS()
	run := &chaosRun{
		energyJ:   srv.Socket.EnergyJoules(horizon),
		completed: lat.Count(),
		dropped:   dropped,
	}
	if lat.Count() > 0 {
		run.tail = lat.Quantiles(qos.Percentile / 100)[0]
		run.qosMet = run.tail <= float64(qos.Latency)
	}
	if rt != nil {
		run.retrains = rt.Retrains()
	}
	for s := fault.Site(0); s < fault.NumSites; s++ {
		run.injected[s] = inj.Fired(s)
	}
	if flight != nil {
		run.audit = flight.Audit().Render()
	}
	return run, nil
}

// renderInjected lists nonzero per-site fire counts in site order.
func renderInjected(inj [fault.NumSites]uint64) string {
	var parts []string
	for s := fault.Site(0); s < fault.NumSites; s++ {
		if inj[s] > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", s, inj[s]))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// Render prints the degradation matrix and the ReTail audits, in a
// deterministic order suitable for golden-file comparison.
func (r *ChaosResult) Render() string {
	t := &table{header: []string{
		"plan", "manager", "base tail", "fault tail", "QoS", "kept", "Δenergy", "drops", "retrains", "injected",
	}}
	for _, c := range r.Cells {
		kept := "LOST"
		if c.FaultQoS {
			kept = "kept"
		}
		t.add(c.Plan, c.Manager,
			dur(c.BaseTail), dur(c.FaultTail), dur(c.QoSTarget), kept,
			pct(c.EnergyDeltaPct), fmt.Sprintf("%d", c.Dropped),
			fmt.Sprintf("%d", c.Retrains), renderInjected(c.Injected))
	}
	var b strings.Builder
	arrivals := ""
	if r.Spec != "" {
		arrivals = fmt.Sprintf(", %s arrivals", r.Spec)
	}
	fmt.Fprintf(&b, "Chaos — %s @ %.1f RPS, canonical 10s timeline (2s warmup)%s\n%s",
		r.App, r.RPS, arrivals, t.String())
	plans := make([]string, 0, len(r.Audits))
	for p := range r.Audits {
		plans = append(plans, p)
	}
	sort.Strings(plans)
	for _, p := range plans {
		fmt.Fprintf(&b, "\nretail under %s:\n%s", p, r.Audits[p])
	}
	return b.String()
}
