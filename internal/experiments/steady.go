package experiments

import (
	"fmt"
	"slices"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/workload"
)

// calibrate calibrates app on platform p and finds its max load, the 100%
// point that every load fraction is relative to.
func calibrate(cfg Config, app workload.App, p core.Platform) (*core.Calibration, float64, error) {
	cal, err := core.Calibrate(app, p, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, 0, err
	}
	return cal, core.CalibrateMaxLoad(app, p, cfg.Seed), nil
}

// retailConfig is the paper's ReTail configuration for cal's application
// around a fresh policy value built from p; callers fill the model,
// layout and training set.
func retailConfig(cal *core.Calibration, p policy.Params) manager.ReTailConfig {
	pol, err := policy.New("retail", p, manager.SimEnv(cal.App.QoS(), cal.Platform.Grid, nil, p))
	if err != nil {
		panic(err) // a grid and the simulator posture are all retail needs
	}
	return manager.ReTailConfig{Policy: pol.(*policy.Retail)}
}

// steadyRun is one steady cell's measurement and the manager that ran it.
type steadyRun struct {
	*core.Result
	mgr manager.Manager
}

// runSteady runs the steady-state cells the paper's evaluation (§VII)
// compares managers on — app at every load fraction of maxLoad under every
// variant — and returns them indexed [load][variant]. A cell offers
// maxLoad × fraction requests/s, measures cfg.runDuration of that rate
// after a warm-up of a fifth of it, and draws its requests from cfg.Seed,
// so every variant at one load sees the same stream. newManager builds a
// fresh manager per cell and must only read shared state; collect (nil =
// never) picks the cells that keep per-request samples. The cells are one
// RunSweep in load-major, variant-minor order.
func runSteady(cfg Config, app workload.App, maxLoad float64, loads []float64, variants []string,
	newManager func(variant string) (manager.Manager, error),
	collect func(load float64, variant string) bool) ([][]steadyRun, error) {
	cells := make([]SweepCell[steadyRun], 0, len(loads)*len(variants))
	for _, lf := range loads {
		rps := maxLoad * lf
		dur := cfg.runDuration(app, rps)
		for _, v := range variants {
			cells = append(cells, SweepCell[steadyRun]{
				Label: fmt.Sprintf("%s/load=%.2f/%s", app.Name(), lf, v),
				Run: func() (steadyRun, error) {
					m, err := newManager(v)
					if err != nil {
						return steadyRun{}, err
					}
					r, err := core.Run(core.RunConfig{App: app, Platform: cfg.Platform, Manager: m,
						RPS: rps, Warmup: dur / 5, Duration: dur, Seed: cfg.Seed,
						CollectSamples: collect != nil && collect(lf, v)})
					return steadyRun{r, m}, err
				},
			})
		}
	}
	runs, err := RunSweep(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	byLoad := make([][]steadyRun, len(loads))
	for i := range byLoad {
		byLoad[i] = runs[i*len(variants) : (i+1)*len(variants)]
	}
	return byLoad, nil
}

// perApp runs fn for each named app as one sweep, results in name order.
func perApp[T any](cfg Config, label string, names []string, fn func(Config, string) (T, error)) ([]T, error) {
	cells := make([]SweepCell[T], 0, len(names))
	for _, name := range names {
		cells = append(cells, SweepCell[T]{
			Label: label + "/" + name,
			Run:   func() (T, error) { return fn(cfg, name) },
		})
	}
	return RunSweep(cfg.Parallel, cells)
}

// loadRows pivots a sweep's cells for a table with one row per key and one
// column group per load: it returns the loads in first-seen order and, per
// key, the key's cells in that load order.
func loadRows[C any, K comparable](cells []C, load func(C) float64, key func(C) K) ([]float64, map[K][]C) {
	var loads []float64
	for _, c := range cells {
		if !slices.Contains(loads, load(c)) {
			loads = append(loads, load(c))
		}
	}
	rows := map[K][]C{}
	for _, l := range loads {
		for _, c := range cells {
			if load(c) == l {
				rows[key(c)] = append(rows[key(c)], c)
			}
		}
	}
	return loads, rows
}
