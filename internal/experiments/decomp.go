package experiments

import (
	"fmt"
	"slices"

	"retail/internal/core"
	"retail/internal/features"
	"retail/internal/manager"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/workload"
)

// Fig 12 — ReTail decomposition: which of the three components (feature
// selection, prediction model, power-management algorithm) delivers the
// savings. Two feature spaces (request features only — Adrenaline's and
// Gemini's space — vs request+application features) crossed with four
// mechanisms:
//
//	coarse      — Pegasus-style application-level control (no per-request)
//	adrenaline  — classification-based per-request boost
//	nn-alg1     — Algorithm 1 on an NN predictor
//	lr-alg1     — Algorithm 1 on the linear predictor (full ReTail)
//
// Rubik appears implicitly as the feature-free latency-based point via its
// own Fig 11 column.

// Fig12Cell is one (feature space, mechanism, load) measurement.
type Fig12Cell struct {
	FeatureSpace string // "request-only" or "request+app"
	Mechanism    string
	Load         float64
	PowerW       float64
	Tail         float64
	QoSMet       bool
}

// Fig12Result reproduces Fig 12 for one application.
type Fig12Result struct {
	App   string
	QoS   workload.QoS
	Cells []Fig12Cell
}

// Fig12Mechanisms lists the four mechanisms in presentation order.
var Fig12Mechanisms = []string{"coarse", "adrenaline", "nn-alg1", "lr-alg1"}

// Fig12 runs the decomposition on one application (the paper plots Xapian
// and Shore, the two that need application features).
func Fig12(cfg Config, appName string) (*Fig12Result, error) {
	app := workload.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	cal, maxLoad, err := calibrate(cfg, app, cfg.Platform)
	if err != nil {
		return nil, err
	}

	// Request-only feature space: rerun selection with every application
	// feature rejected (lateness threshold just above zero).
	reqSel, err := requestOnlySelection(cal)
	if err != nil {
		return nil, err
	}
	spaces := []struct {
		name     string
		selected []int
	}{
		{"request-only", reqSel},
		{"request+app", cal.Selection.Selected},
	}

	// Models for both feature spaces are trained up front (deterministic:
	// seeded fits on the shared training set); the runs themselves then
	// fan out as one steady sweep whose variants are the (space,
	// mechanism) pairs.
	var variants []string
	mechanisms := map[string]func() manager.Manager{}
	for _, space := range spaces {
		layout := predict.FeatureLayout{Specs: app.FeatureSpecs(), Selected: space.selected}
		lrModel, err := predict.FitLinear(cal.Training, layout, cfg.Platform.Grid.Levels())
		if err != nil {
			return nil, err
		}
		nnModel, err := fitSpaceNN(cfg, cal, space.selected)
		if err != nil {
			return nil, err
		}
		perSpace := map[string]func() manager.Manager{
			"coarse": func() manager.Manager { return manager.NewPegasus(app.QoS()) },
			"adrenaline": func() manager.Manager {
				return cal.NewAdrenaline()
			},
			"nn-alg1": func() manager.Manager {
				c := retailConfig(cal, policy.Params{})
				c.Layout = layout
				c.Model = nnModel
				c.Stage1Frac = stage1For(cal, space.name)
				return manager.NewReTail(app.QoS(), c)
			},
			"lr-alg1": func() manager.Manager {
				c := retailConfig(cal, policy.Params{})
				c.Layout = layout
				c.Model = lrModel
				c.Training = cal.Training.Clone()
				c.Stage1Frac = stage1For(cal, space.name)
				return manager.NewReTail(app.QoS(), c)
			},
		}
		for _, mech := range Fig12Mechanisms {
			v := space.name + "/" + mech
			variants = append(variants, v)
			mechanisms[v] = perSpace[mech]
		}
	}
	runs, err := runSteady(cfg, app, maxLoad, cfg.Loads, variants,
		func(v string) (manager.Manager, error) { return mechanisms[v](), nil }, nil)
	if err != nil {
		return nil, err
	}
	// Iterating Fig12Mechanisms (not a map) pins the Cells slice — and
	// hence the CSV export — to space-major, load, mechanism order.
	res := &Fig12Result{App: app.Name(), QoS: app.QoS()}
	for _, space := range spaces {
		for li, lf := range cfg.Loads {
			for _, mech := range Fig12Mechanisms {
				r := runs[li][slices.Index(variants, space.name+"/"+mech)]
				res.Cells = append(res.Cells, Fig12Cell{
					FeatureSpace: space.name, Mechanism: mech, Load: lf,
					PowerW: r.AvgPowerW, Tail: r.TailAtQoSPct, QoSMet: r.QoSMet,
				})
			}
		}
	}
	return res, nil
}

// requestOnlySelection reruns feature selection with application features
// excluded.
func requestOnlySelection(cal *core.Calibration) ([]int, error) {
	ds := features.Dataset{Specs: cal.App.FeatureSpecs()}
	samples := cal.Training.At(cal.Platform.Grid.MaxLevel())
	for _, s := range samples {
		ds.X = append(ds.X, s.Features)
		ds.Service = append(ds.Service, s.Service)
	}
	opt := features.DefaultOptions()
	opt.LatenessThreshold = 1e-9 // reject every application feature
	sel, err := features.Select(ds, opt)
	if err != nil {
		return nil, err
	}
	return sel.Selected, nil
}

// fitSpaceNN trains an NN on the given feature subset (all request
// features when the subset is empty, matching Gemini's "all available at
// arrival" policy).
func fitSpaceNN(cfg Config, cal *core.Calibration, selected []int) (*predict.NNModel, error) {
	inputs := selected
	if len(inputs) == 0 {
		for j, s := range cal.App.FeatureSpecs() {
			if s.RequestFeature() {
				inputs = append(inputs, j)
			}
		}
		if len(inputs) == 0 {
			inputs = []int{0}
		}
	}
	nncfg := cfg.nnConfig(nn.TunedConfig(len(inputs), 2, 32, 30, 32), len(inputs))
	return predict.FitNN(cal.Training, cfg.Platform.Grid, nncfg, cfg.Platform.Grid.MaxLevel(), inputs)
}

// stage1For returns the stage-1 split only for the full feature space;
// request-only spaces never wait on application features.
func stage1For(cal *core.Calibration, space string) func(*workload.Request) float64 {
	if space == "request-only" {
		return func(*workload.Request) float64 { return 0 }
	}
	return cal.Stage1Frac()
}

// Render prints one row per (space, mechanism) with power across loads.
func (r *Fig12Result) Render() string {
	loads, rows := loadRows(r.Cells, func(c Fig12Cell) float64 { return c.Load },
		func(c Fig12Cell) [2]string { return [2]string{c.FeatureSpace, c.Mechanism} })
	header := []string{"feature space", "mechanism"}
	for _, l := range loads {
		header = append(header, "W@"+pct(l))
	}
	header = append(header, "QoS")
	t := &table{header: header}
	for _, space := range []string{"request-only", "request+app"} {
		for _, mech := range Fig12Mechanisms {
			row := []string{space, mech}
			verdict := "OK"
			for _, c := range rows[[2]string{space, mech}] {
				row = append(row, f2(c.PowerW))
				if !c.QoSMet {
					verdict = "violations"
				}
			}
			t.add(append(row, verdict)...)
		}
	}
	return "Fig 12 — ReTail decomposition for " + r.App + "\n" + t.String()
}
