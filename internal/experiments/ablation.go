package experiments

import (
	"fmt"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/workload"
)

// Ablation quantifies ReTail's individual design choices (the decisions
// DESIGN.md calls out) by disabling them one at a time:
//
//	full          — the paper's complete design
//	no-monitor    — QoS′ pinned to QoS (no latency monitor, §VI-C)
//	head-only     — Algorithm 1 ignores queued requests (§VI-B's inner loop)
//	proportional  — per-frequency models replaced by latency ∝ 1/f scaling
//	no-stage1     — application features unavailable before execution (no
//	                two-stage split, §VI-A); prediction degrades to the
//	                request-feature subset for queued work
//
// Expected shape: every ablation either violates QoS (head-only,
// no-monitor at high load) or burns more power / mispredicts
// (proportional on memory-bound work, no-stage1 on app-feature work).

// AblationCell is one (variant, load) measurement.
type AblationCell struct {
	Variant string
	Load    float64
	PowerW  float64
	Tail    float64
	QoSMet  bool
	Drops   int
}

// AblationResult holds the sweep for one application.
type AblationResult struct {
	App   string
	QoS   workload.QoS
	Cells []AblationCell
}

// AblationVariants lists the variant names in presentation order.
var AblationVariants = []string{"full", "no-monitor", "head-only", "proportional", "no-stage1"}

// Ablation runs the variant sweep on one application.
func Ablation(cfg Config, appName string) (*AblationResult, error) {
	app := workload.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	cal, err := core.Calibrate(app, cfg.Platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxLoad := core.CalibrateMaxLoad(app, cfg.Platform, cfg.Seed)
	res := &AblationResult{App: app.Name(), QoS: app.QoS()}

	baseCfg := func(p policy.Params) manager.ReTailConfig {
		c := retailConfig(cal, p)
		c.Layout = cal.Layout
		c.Model = cal.Model
		c.Training = cal.Training.Clone()
		c.Stage1Frac = cal.Stage1Frac()
		return c
	}
	variants := map[string]func() manager.Manager{
		"full": func() manager.Manager {
			m := manager.NewReTail(app.QoS(), baseCfg(policy.Params{}))
			m.SetDriftBaseline(cal.BaselineRMSEOverQoS)
			return m
		},
		"no-monitor": func() manager.Manager {
			c := baseCfg(policy.Params{Monitor: policy.MonitorParams{Disabled: true}})
			return manager.NewReTail(app.QoS(), c)
		},
		"head-only": func() manager.Manager {
			c := baseCfg(policy.Params{Alg1: policy.Alg1Params{HeadOnly: true}})
			return manager.NewReTail(app.QoS(), c)
		},
		"proportional": func() manager.Manager {
			c := baseCfg(policy.Params{})
			prop, err := predict.NewProportional(cal.Model, cfg.Platform.Grid, cfg.Platform.Grid.MaxLevel())
			if err != nil {
				panic(err) // statically valid inputs
			}
			c.Model = prop
			c.Training = nil // retraining would reintroduce per-level models
			return manager.NewReTail(app.QoS(), c)
		},
		"no-stage1": func() manager.Manager {
			c := baseCfg(policy.Params{})
			c.Stage1Frac = func(*workload.Request) float64 { return 0 }
			// Without the split, application features of queued requests
			// are never extracted before execution; ReTail's observability
			// guard then zeroes them at prediction time, so no further
			// change is needed — the Ready callback simply never fires
			// early. Modeled by treating every app feature as unavailable:
			// restrict the layout to request features.
			var reqOnly []int
			for _, j := range cal.Layout.Selected {
				if cal.Layout.Specs[j].RequestFeature() {
					reqOnly = append(reqOnly, j)
				}
			}
			c.Layout = predict.FeatureLayout{Specs: cal.Layout.Specs, Selected: reqOnly}
			m, err := predict.FitLinear(cal.Training, c.Layout, cfg.Platform.Grid.Levels())
			if err != nil {
				panic(err)
			}
			c.Model = m
			c.Training = cal.Training.Clone()
			return manager.NewReTail(app.QoS(), c)
		},
	}
	// Canonical cell order: load-major, variant-minor. The variant
	// constructors only read the shared calibration (Clone and FitLinear
	// never mutate their source), so cells run concurrently.
	var cells []SweepCell[*core.Result]
	for _, lf := range cfg.Loads {
		rps := maxLoad * lf
		dur := cfg.runDuration(app, rps)
		for _, name := range AblationVariants {
			mk := variants[name]
			cells = append(cells, SweepCell[*core.Result]{
				Label: fmt.Sprintf("%s/load=%.2f/%s", app.Name(), lf, name),
				Run: func() (*core.Result, error) {
					return core.Run(core.RunConfig{
						App: app, Platform: cfg.Platform, Manager: mk(),
						RPS: rps, Warmup: dur / 5, Duration: dur, Seed: cfg.Seed,
					})
				},
			})
		}
	}
	runs, err := RunSweep(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}
	idx := 0
	for _, lf := range cfg.Loads {
		for _, name := range AblationVariants {
			r := runs[idx]
			idx++
			res.Cells = append(res.Cells, AblationCell{
				Variant: name, Load: lf,
				PowerW: r.AvgPowerW, Tail: r.TailAtQoSPct, QoSMet: r.QoSMet, Drops: r.Dropped,
			})
		}
	}
	return res, nil
}

// Render prints power and QoS per variant across loads.
func (r *AblationResult) Render() string {
	loads := []float64{}
	seen := map[float64]bool{}
	for _, c := range r.Cells {
		if !seen[c.Load] {
			seen[c.Load] = true
			loads = append(loads, c.Load)
		}
	}
	header := []string{"variant"}
	for _, l := range loads {
		header = append(header, fmt.Sprintf("W@%s", pct(l)), fmt.Sprintf("tail@%s", pct(l)))
	}
	t := &table{header: header}
	for _, v := range AblationVariants {
		row := []string{v}
		for _, l := range loads {
			for _, c := range r.Cells {
				if c.Variant == v && c.Load == l {
					tail := dur(c.Tail)
					if !c.QoSMet {
						tail += "!"
					}
					row = append(row, f2(c.PowerW), tail)
				}
			}
		}
		t.add(row...)
	}
	return fmt.Sprintf("Ablation — %s (QoS %s; '!' marks a violation)\n%s", r.App, r.QoS.String(), t.String())
}
