package experiments

import (
	"fmt"

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
	cal, maxLoad, err := calibrate(cfg, app, cfg.Platform)
	if err != nil {
		return nil, err
	}
	baseCfg := func(p policy.Params) manager.ReTailConfig {
		c := retailConfig(cal, p)
		c.Layout = cal.Layout
		c.Model = cal.Model
		c.Training = cal.Training.Clone()
		c.Stage1Frac = cal.Stage1Frac()
		return c
	}
	// The variant constructors only read the shared calibration (Clone and
	// FitLinear never mutate their source), so cells run concurrently.
	newVariant := func(name string) (manager.Manager, error) {
		switch name {
		case "full":
			m := manager.NewReTail(app.QoS(), baseCfg(policy.Params{}))
			m.SetDriftBaseline(cal.BaselineRMSEOverQoS)
			return m, nil
		case "no-monitor":
			c := baseCfg(policy.Params{Monitor: policy.MonitorParams{Disabled: true}})
			return manager.NewReTail(app.QoS(), c), nil
		case "head-only":
			c := baseCfg(policy.Params{Alg1: policy.Alg1Params{HeadOnly: true}})
			return manager.NewReTail(app.QoS(), c), nil
		case "proportional":
			c := baseCfg(policy.Params{})
			prop, err := predict.NewProportional(cal.Model, cfg.Platform.Grid, cfg.Platform.Grid.MaxLevel())
			if err != nil {
				return nil, err
			}
			c.Model = prop
			c.Training = nil // retraining would reintroduce per-level models
			return manager.NewReTail(app.QoS(), c), nil
		case "no-stage1":
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
				return nil, err
			}
			c.Model = m
			return manager.NewReTail(app.QoS(), c), nil
		}
		return nil, fmt.Errorf("experiments: unknown ablation variant %q", name)
	}
	runs, err := runSteady(cfg, app, maxLoad, cfg.Loads, AblationVariants, newVariant, nil)
	if err != nil {
		return nil, err
	}
	res := &AblationResult{App: app.Name(), QoS: app.QoS()}
	for li, lf := range cfg.Loads {
		for vi, name := range AblationVariants {
			r := runs[li][vi]
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
	loads, rows := loadRows(r.Cells, func(c AblationCell) float64 { return c.Load },
		func(c AblationCell) string { return c.Variant })
	header := []string{"variant"}
	for _, l := range loads {
		header = append(header, "W@"+pct(l), "tail@"+pct(l))
	}
	t := &table{header: header}
	for _, v := range AblationVariants {
		row := []string{v}
		for _, c := range rows[v] {
			tail := dur(c.Tail)
			if !c.QoSMet {
				tail += "!"
			}
			row = append(row, f2(c.PowerW), tail)
		}
		t.add(row...)
	}
	return fmt.Sprintf("Ablation — %s (QoS %s; '!' marks a violation)\n%s", r.App, r.QoS.String(), t.String())
}
