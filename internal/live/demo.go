package live

import (
	"time"

	"retail/internal/cpu"
	"retail/internal/predict"
	"retail/internal/sim"
	"retail/internal/workload"
)

// DemoExecutor builds an Executor that simulates request work by sleeping
// for the request's modeled service time at the backend's mocked
// frequency. On real hardware with SysfsBackend, the application's own
// work replaces this and the frequency change is physical.
func DemoExecutor(app workload.App, backend *MockBackend, timeScale float64) Executor {
	grid := backend.Grid()
	if timeScale <= 0 {
		timeScale = 1
	}
	return func(r Request, lvl cpu.Level) {
		// Rebuild the service model from the request features via a
		// surrogate request; the demo keeps the feature→latency mapping of
		// the synthetic workload.
		sr := &workload.Request{
			Features:    r.Features,
			ServiceBase: demoBase(app, r.Features),
			ComputeFrac: 0.8,
		}
		d := sr.ServiceAt(grid.Freq(grid.Clamp(lvl)), grid.MaxFreq(), 1)
		time.Sleep(time.Duration(float64(d) * 1e9 * timeScale))
	}
}

// ScaledPredictor multiplies a predictor's service-time estimates by
// Scale: the demo executor's time compression, so a simulator-calibrated
// model predicts in the units the compressed executor produces (real
// hardware runs at Scale 1).
type ScaledPredictor struct {
	Inner predict.Predictor
	Scale float64
}

func (p ScaledPredictor) Predict(lvl cpu.Level, f []float64) float64 {
	return p.Inner.Predict(lvl, f) * p.Scale
}

// demoBase derives an intrinsic service time from features with the
// workload's published ground-truth model where available.
func demoBase(app workload.App, features []float64) sim.Duration {
	switch app.Name() {
	case "xapian":
		idx := workload.FeatureIndex(app, "doc_count")
		return sim.Duration(workload.XapianServiceMs(features[idx]) * 1e-3)
	case "moses":
		idx := workload.FeatureIndex(app, "word_count")
		return sim.Duration((1.8 + 0.58*features[idx]) * 1e-3)
	default:
		return sim.Duration(1e-3)
	}
}
