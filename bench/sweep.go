package main

import (
	"fmt"
	"runtime"

	"retail/internal/cluster"
	"retail/internal/core"
	"retail/internal/experiments"
	"retail/internal/sim"
	"retail/internal/workload"
)

// sweep-baselines: experiments.FleetSweep, xapian, 8 nodes x 4 workers,
// two dispatchers x the four policies x load 0.6, the published Gemini
// network, Parallel = nproc.
const (
	sweepNodes   = 8
	sweepWorkers = 4
	sweepLoad    = 0.6
)

var (
	sweepDispatchers = []string{"power-of-two", "round-robin"}
	sweepPolicies    = []string{"retail", "rubik", "gemini", "eetl"}
)

type sweepBaselines struct{ inProcess }

func (sweepBaselines) config(e *env, seed int64) (experiments.Config, experiments.FleetOptions) {
	cfg := experiments.Default()
	cfg.Seed = seed
	cfg.Parallel = 0 // GOMAXPROCS
	cfg.GeminiNN = e.sz.gemNN
	return cfg, experiments.FleetOptions{
		App: benchApp, Nodes: sweepNodes, WorkersPerNode: sweepWorkers,
		Dispatchers: sweepDispatchers, Policies: sweepPolicies,
		Loads: []float64{sweepLoad}, RequestsPerCell: e.sz.sweepReqs,
	}
}

// setup fills the per-process max-load memo: the search is calibration a
// retail-cluster user pays once however many cells follow, so it is
// set-up here and the timed FleetSweep finds it done.
func (w sweepBaselines) setup(e *env) error {
	cfg, _ := w.config(e, e.seed)
	app := workload.ByName(benchApp)
	if core.CalibrateMaxLoad(app, cfg.Platform.WithWorkers(sweepWorkers), e.seed) <= 0 {
		return fmt.Errorf("max-load search found no rate meeting QoS")
	}
	return nil
}

func (w sweepBaselines) run(e *env, seed int64) (*experiments.FleetSweepResult, error) {
	cfg, opt := w.config(e, seed)
	return experiments.FleetSweep(cfg, opt)
}

func sweepRequests(r *experiments.FleetSweepResult) int {
	n := 0
	for _, c := range r.Cells {
		n += c.Result.Routed
	}
	return n
}

func sweepDigest(r *experiments.FleetSweepResult) string {
	d := newDigest()
	for _, c := range r.Cells {
		d.str(c.Dispatcher)
		d.str(c.Policy)
		d.str(fleetDigest(c.Result))
	}
	return d.sum()
}

func checkSweep(res *runResult, r *experiments.FleetSweepResult, err error, what string) bool {
	if err != nil {
		res.check(false, "%s: %v", what, err)
		return false
	}
	want := len(sweepDispatchers) * len(sweepPolicies)
	res.check(len(r.Cells) == want, "%s: %d cells, want %d", what, len(r.Cells), want)
	for _, c := range r.Cells {
		checkFleet(res, c.Result, nil, what+" "+c.Dispatcher+"/"+c.Policy)
	}
	return true
}

// setSweepQuality reports the simulated-quality metrics over the retail
// cells and the paper's headline saving against Rubik.
func setSweepQuality(res *runResult, r *experiments.FleetSweepResult) {
	var retail, rubik cluster.FleetResult
	for _, c := range r.Cells {
		switch c.Policy {
		case "retail":
			retail.EnergyJ += c.Result.EnergyJ
			retail.Completed += c.Result.Completed
			retail.Dropped += c.Result.Dropped
			retail.Violations += c.Result.Violations
		case "rubik":
			rubik.EnergyJ += c.Result.EnergyJ
		}
	}
	setSimQuality(res, retail.EnergyJ, retail.Completed, retail.Dropped, retail.Violations)
	if rubik.EnergyJ > 0 {
		res.set("retail_saving_vs_rubik_pct", 100*(1-retail.EnergyJ/rubik.EnergyJ))
	}
}

func (w sweepBaselines) measure(e *env) error {
	var r *experiments.FleetSweepResult
	return runUnits(e, func(seed int64) (_ int, err error) {
		if r, err = w.run(e, seed); err != nil {
			return 0, err
		}
		return sweepRequests(r), nil
	}, func(i int, seed int64, last bool) {
		checkSweep(e.res, r, nil, fmt.Sprintf("unit %d", i))
		if i == 0 {
			e.res.Digest = sweepDigest(r)
			setSweepQuality(e.res, r)
		} else if last {
			e.res.check(sweepDigest(r) == e.res.Digest, "two runs at seed %d disagree", seed)
		}
	})
}

// layers is the traced pass. FleetSweep has no seam, so the NN's share is
// costed from the probes: one training, plus forward passes at the
// inference rate a bench-owned Gemini node shows.
func (w sweepBaselines) layers(e *env) error {
	seed := e.seed * 1000
	var r *experiments.FleetSweepResult
	before := readGoStats()
	end := e.tr.begin("experiments", "experiments.FleetSweep")
	wall, cpu, err := timedCall(func() (err error) { r, err = w.run(e, seed); return })
	end()
	after := readGoStats()
	if !checkSweep(e.res, r, err, "traced") {
		return err
	}
	e.res.Digest = sweepDigest(r)
	setSweepQuality(e.res, r)
	reqs := float64(sweepRequests(r))
	if e.selected {
		// One NN training per sweep makes a second run cost as much as
		// the first; it is made only for the workload that was asked for.
		var plain *experiments.FleetSweepResult
		wallU, _, err := timedCall(func() (err error) { plain, err = w.run(e, seed); return })
		if !checkSweep(e.res, plain, err, "untraced") {
			return err
		}
		e.res.check(sweepDigest(plain) == e.res.Digest, "traced and untraced digests differ")
		e.res.set("trace_overhead_frac", wall/wallU-1)
		e.res.setGoMetrics(before, after, int(reqs))
	}
	e.res.set("experiments.cells_per_s", float64(len(r.Cells))/wall)
	e.res.set("experiments.sweep_parallel_eff", cpu/(wall*float64(runtime.GOMAXPROCS(0))))

	// Budget in CPU time, since the cells run in parallel.
	e.res.E2ENsPerReq = cpu / reqs * 1e9
	train, okT := e.probe("nn.train_s")
	fwd, okF := e.probe("nn.forward_us")
	if okT && okF && e.shared.gemCal != nil {
		perReq, err := geminiInferencesPerRequest(e.shared.gemCal, seed)
		if err != nil {
			return err
		}
		gemReqs := 0.0
		for _, c := range r.Cells {
			if c.Policy == "gemini" {
				gemReqs += float64(c.Result.Routed)
			}
		}
		cal, _ := e.probe("predict.calibrate_ms")
		e.res.Budget = []budgetRow{
			{"nn (training)", train * 1e9 / reqs, "probe: nn.train_s, once per sweep"},
			{"nn (forward)", fwd * 1e3 * perReq * gemReqs / reqs,
				fmt.Sprintf("probe: nn.forward_us x %.2f inferences/request x %.0f gemini requests", perReq, gemReqs)},
			{"predict (calibration)", cal * 1e6 / reqs, "probe: predict.calibrate_ms"},
		}
	}
	return nil
}

// geminiInferencesPerRequest runs one small bench-owned Gemini node and
// reads the manager's own inference counter.
func geminiInferencesPerRequest(cal *core.Calibration, seed int64) (float64, error) {
	m, err := cal.NewGemini(nil) // the network is already trained and memoized
	if err != nil {
		return 0, err
	}
	const reqs = 4000
	// One node's share of a sweep cell's load (the search is memoised).
	rps := sweepLoad * core.CalibrateMaxLoad(cal.App, cal.Platform, seed)
	res, err := core.Run(core.RunConfig{
		App: cal.App, Platform: cal.Platform, Manager: m,
		RPS: rps, Warmup: 0, Duration: sim.Duration(reqs / rps), Seed: seed,
	})
	if err != nil {
		return 0, err
	}
	if n := res.Completed + res.Dropped; n > 0 {
		return float64(m.Inferences()) / float64(n), nil
	}
	return 0, fmt.Errorf("gemini probe node retired no requests")
}
