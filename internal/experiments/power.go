package experiments

import (
	"fmt"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/predict"
	"retail/internal/workload"
)

// ManagerNames lists the three power managers of the paper's headline
// comparison (Fig 11, Table V).
var ManagerNames = []string{"rubik", "gemini", "retail"}

// Fig11Point is one (load, manager) cell of Fig 11.
type Fig11Point struct {
	Load     float64 // fraction of max load
	RPS      float64
	PowerW   map[string]float64 // Fig 11a
	DropRate map[string]float64 // Fig 11b (gemini only in practice)
	Tail     map[string]float64 // Fig 11c, at the QoS percentile
	MeanLat  map[string]float64
	QoSMet   map[string]bool
	MaxFreqW float64 // the unmanaged reference
}

// Fig11App is one application's sweep.
type Fig11App struct {
	App     string
	QoS     workload.QoS
	MaxLoad float64
	Points  []Fig11Point
	// RMSE is Table V: live prediction RMSE per manager, measured on the
	// highest-load run's completed requests.
	RMSE map[string]float64
	// Savings vs the two baselines, averaged over the sweep (the paper's
	// headline numbers aggregate these across apps).
	AvgSavingVsRubik  float64
	AvgSavingVsGemini float64
}

// Fig11Result reproduces Fig 11 (a, b, c) and Table V.
type Fig11Result struct {
	Apps []Fig11App
}

// Fig11 runs the full load sweep for the given applications (nil = all
// seven) under Rubik, Gemini and ReTail.
func Fig11(cfg Config, appNames []string) (*Fig11Result, error) {
	if appNames == nil {
		appNames = AppNames()
	}
	for _, name := range appNames {
		if workload.ByName(name) == nil {
			return nil, fmt.Errorf("experiments: unknown app %q", name)
		}
	}
	// Two levels of fan-out: one cell per app (whose calibration and
	// Gemini NN training dominate the wall clock), and inside each app a
	// second sweep over (load × manager) runs. Both merge in canonical
	// order, so the result is independent of scheduling.
	apps, err := perApp(cfg, "fig11", appNames, fig11App)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Fig11Result{Apps: apps}, nil
}

func fig11App(cfg Config, name string) (Fig11App, error) {
	app := workload.ByName(name)
	cal, maxLoad, err := calibrate(cfg, app, cfg.Platform)
	if err != nil {
		return Fig11App{}, err
	}
	fa := Fig11App{App: app.Name(), QoS: app.QoS(), MaxLoad: maxLoad, RMSE: map[string]float64{}}

	// Fresh manager state per run; Gemini's trained network is reused
	// (training it is the expensive part and it is immutable, trained once
	// per calibration). The constructors only read the shared calibration,
	// so cells can call them concurrently.
	newManager := func(name string) (manager.Manager, error) {
		if name == "maxfreq" {
			return manager.NewMaxFreq(), nil
		}
		return cal.NewManagerParams(name, cfg.GeminiNN, cfg.Params)
	}
	// Table V scores the managers on the samples of the highest load.
	isLast := func(lf float64) bool { return lf == cfg.Loads[len(cfg.Loads)-1] }
	variants := append([]string{"maxfreq"}, ManagerNames...)
	runs, err := runSteady(cfg, app, maxLoad, cfg.Loads, variants, newManager,
		func(lf float64, mname string) bool { return isLast(lf) && mname != "maxfreq" })
	if err != nil {
		return Fig11App{}, err
	}

	var sumRubik, sumGemini float64
	for li, lf := range cfg.Loads {
		pt := Fig11Point{
			Load: lf, RPS: maxLoad * lf,
			PowerW:   map[string]float64{},
			DropRate: map[string]float64{},
			Tail:     map[string]float64{},
			MeanLat:  map[string]float64{},
			QoSMet:   map[string]bool{},
		}
		for vi, mname := range variants {
			r := runs[li][vi]
			if mname == "maxfreq" {
				pt.MaxFreqW = r.AvgPowerW
				continue
			}
			pt.PowerW[mname] = r.AvgPowerW
			pt.DropRate[mname] = r.DropRate()
			pt.Tail[mname] = r.TailAtQoSPct
			pt.MeanLat[mname] = r.MeanLatency
			pt.QoSMet[mname] = r.QoSMet
			if isLast(lf) {
				fa.RMSE[mname] = liveRMSE(cal, mname, r.Samples)
			}
		}
		sumRubik += 1 - pt.PowerW["retail"]/pt.PowerW["rubik"]
		sumGemini += 1 - pt.PowerW["retail"]/pt.PowerW["gemini"]
		fa.Points = append(fa.Points, pt)
	}
	n := float64(len(cfg.Loads))
	fa.AvgSavingVsRubik = sumRubik / n
	fa.AvgSavingVsGemini = sumGemini / n
	return fa, nil
}

// liveRMSE scores each manager's predictor against the actually measured
// service times of one run (Table V's methodology). Rubik's "prediction"
// is its tail estimate; Gemini's is its NN restricted to request features;
// ReTail's is the calibrated linear model on full features.
func liveRMSE(cal *core.Calibration, mname string, samples []predict.Sample) float64 {
	if len(samples) == 0 {
		return 0
	}
	switch mname {
	case "rubik":
		actual := make([]float64, len(samples))
		for i, s := range samples {
			actual[i] = s.Service
		}
		return cal.NewRubik().RMSEAgainstAt(cal.Platform.Grid, samples, actual)
	case "retail":
		met, err := predict.Evaluate(cal.Model, samples)
		if err != nil {
			return 0
		}
		return met.RMSE
	case "gemini":
		model, err := cal.GeminiModel(nil)
		if err != nil {
			return 0
		}
		met, err := predict.Evaluate(model, samples)
		if err != nil {
			return 0
		}
		return met.RMSE
	}
	return 0
}

// Render prints the three Fig 11 panels and the Table V row per app.
func (r *Fig11Result) Render() string {
	out := ""
	for _, a := range r.Apps {
		t := &table{header: []string{"load", "maxfreq W", "rubik W", "gemini W", "retail W",
			"gemini drop", "rubik tail", "gemini tail", "retail tail", "retail QoS"}}
		for _, p := range a.Points {
			met := "OK"
			if !p.QoSMet["retail"] {
				met = "VIOLATED"
			}
			t.add(pct(p.Load), f2(p.MaxFreqW), f2(p.PowerW["rubik"]), f2(p.PowerW["gemini"]),
				f2(p.PowerW["retail"]), pct(p.DropRate["gemini"]),
				dur(p.Tail["rubik"]), dur(p.Tail["gemini"]), dur(p.Tail["retail"]), met)
		}
		out += fmt.Sprintf("Fig 11 — %s (%s, max load %.0f RPS; avg saving vs rubik %s, vs gemini %s)\n%s",
			a.App, a.QoS.String(), a.MaxLoad, pct(a.AvgSavingVsRubik), pct(a.AvgSavingVsGemini), t.String())
		out += fmt.Sprintf("Table V — %s live prediction RMSE: rubik=%s gemini=%s retail=%s\n\n",
			a.App, dur(a.RMSE["rubik"]), dur(a.RMSE["gemini"]), dur(a.RMSE["retail"]))
	}
	return out
}
