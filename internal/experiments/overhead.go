package experiments

import (
	"fmt"

	"retail/internal/cpu"
	"retail/internal/manager"
	"retail/internal/sim"
	"retail/internal/workload"
)

// OverheadResult reproduces the §VII-F overhead accounting: frequency-
// predictor decision cost (inferences per decision × per-inference cost)
// and the frequency-transition latency distribution.
type OverheadResult struct {
	App string

	Decisions           int
	Inferences          uint64
	InferencesPerDecide float64
	// DecisionCost is the virtual time per decision implied by the 5 µs
	// per-inference cost (paper: 5–100 µs, average ≈ 25 µs).
	MeanDecisionCost sim.Duration
	Transitions      int
	// Transition latency statistics from the configured hardware model
	// (paper: 10–500 µs, average ≈ 25 µs).
	TransMin, TransMean, TransMax sim.Duration
}

// Overhead runs ReTail at mid load and reports the decision/transition
// overhead statistics.
func Overhead(cfg Config, appName string) (*OverheadResult, error) {
	app := workload.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	cal, maxLoad, err := calibrate(cfg, app, cfg.Platform)
	if err != nil {
		return nil, err
	}
	runs, err := runSteady(cfg, app, maxLoad, []float64{0.6}, []string{"retail"},
		func(string) (manager.Manager, error) { return cal.NewReTail(), nil }, nil)
	if err != nil {
		return nil, err
	}
	r := runs[0][0]
	rt := r.mgr.(*manager.ReTail)
	res := &OverheadResult{
		App:         app.Name(),
		Decisions:   rt.Decisions(),
		Inferences:  rt.Inferences(),
		Transitions: r.Transitions,
	}
	if res.Decisions > 0 {
		res.InferencesPerDecide = float64(res.Inferences) / float64(res.Decisions)
		res.MeanDecisionCost = sim.Duration(res.InferencesPerDecide) * 5 * sim.Microsecond
	}
	tm := cpu.DefaultTransitionModel()
	res.TransMin, res.TransMean, res.TransMax = tm.Min, tm.Mean, tm.Max
	return res, nil
}

// Render prints the §VII-F rows.
func (r *OverheadResult) Render() string {
	return fmt.Sprintf(`§VII-F — ReTail overhead for %s
  frequency-predictor decisions     %d
  predictor inferences              %d (%.1f per decision)
  mean decision cost                %v (5µs per inference)
  frequency transitions applied     %d
  transition latency model          min %v / mean %v / max %v
`,
		r.App, r.Decisions, r.Inferences, r.InferencesPerDecide,
		r.MeanDecisionCost, r.Transitions, r.TransMin, r.TransMean, r.TransMax)
}
