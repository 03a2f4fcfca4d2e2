// Benchmark harness: one testing.B per paper table/figure. Each benchmark
// regenerates its artifact with the Quick experiment configuration and
// reports domain metrics (power savings, RMSE ratios, drop rates) via
// b.ReportMetric, so `go test -bench=. -benchmem` doubles as a compact
// reproduction report. Run `retail bench` (without -quick) for the
// paper-resolution sweeps.
package main

import (
	"testing"

	"retail/internal/experiments"
)

func quickCfg() experiments.Config { return experiments.Quick() }

func BenchmarkFig01ServiceVsSojourn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig1(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(last.P99Sojourn/last.MeanSvc, "p99-sojourn/svc")
	}
}

func BenchmarkFig02Table02ServiceCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig2(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		little := 0
		for _, a := range res.Apps {
			if a.LittleVariant {
				little++
			}
		}
		b.ReportMetric(float64(little), "little-variation-apps")
	}
}

func BenchmarkFig03LengthInterpretations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		var good, decoy float64
		for _, row := range res.Rows {
			if row.Correlates {
				good += row.Pearson
			} else {
				decoy += row.Pearson
			}
		}
		b.ReportMetric(good/2, "mean-rho-real")
		b.ReportMetric(decoy/2, "mean-rho-decoy")
	}
}

func BenchmarkFig04PerTypeCDFs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig4(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05AppFeatureCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		minRho := 1.0
		for _, row := range res.Rows {
			if row.Pearson < minRho {
				minRho = row.Pearson
			}
		}
		b.ReportMetric(minRho, "min-rho")
	}
}

func BenchmarkFig06Lateness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(quickCfg()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable04ModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.TableIV(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		var lrTrain, nnTrain float64
		for _, row := range res.Rows {
			switch row.Model {
			case "LR":
				lrTrain += row.TrainTime.Seconds()
			case "NN-G":
				nnTrain += row.TrainTime.Seconds()
			}
		}
		if lrTrain > 0 {
			b.ReportMetric(nnTrain/lrTrain, "nn/lr-train-ratio")
		}
	}
}

func BenchmarkFig08FitCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig8(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		// LR's curvature is zero to machine precision (it is a line), so
		// report absolute roughness for the two NN fits instead of a ratio.
		b.ReportMetric(res.NNGRoughness*1e3, "nng-roughness-ms")
		b.ReportMetric(res.NNTRoughness*1e3, "nnt-roughness-ms")
	}
}

func BenchmarkFig09TrainingSetSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig9(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 1.0
		for _, a := range res.Apps {
			last := a.Points[len(a.Points)-1].R2
			if last < worst {
				worst = last
			}
		}
		b.ReportMetric(worst, "worst-R2-at-N1000")
	}
}

// BenchmarkFig11… regenerate the headline power/drop/tail sweep, one
// benchmark per panel, on a representative application subset (run
// retail bench for all seven).

func fig11(b *testing.B, apps []string) *experiments.Fig11Result {
	b.Helper()
	res, err := experiments.Fig11(quickCfg(), apps)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func BenchmarkFig11PowerXapian(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11(b, []string{"xapian"})
		b.ReportMetric(res.Apps[0].AvgSavingVsRubik*100, "saving-vs-rubik-%")
		b.ReportMetric(res.Apps[0].AvgSavingVsGemini*100, "saving-vs-gemini-%")
	}
}

func BenchmarkFig11PowerMoses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11(b, []string{"moses"})
		b.ReportMetric(res.Apps[0].AvgSavingVsRubik*100, "saving-vs-rubik-%")
	}
}

func BenchmarkFig11DropsGemini(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11(b, []string{"imgdnn"})
		pts := res.Apps[0].Points
		b.ReportMetric(pts[len(pts)-1].DropRate["gemini"]*100, "gemini-drop-at-top-load-%")
	}
}

func BenchmarkFig11TailQoS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11(b, []string{"shore"})
		met := 0
		for _, p := range res.Apps[0].Points {
			if p.QoSMet["retail"] {
				met++
			}
		}
		b.ReportMetric(float64(met)/float64(len(res.Apps[0].Points))*100, "retail-qos-met-%")
	}
}

func BenchmarkTable05PredictionRMSE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := fig11(b, []string{"xapian"})
		a := res.Apps[0]
		if a.RMSE["retail"] > 0 {
			b.ReportMetric(a.RMSE["rubik"]/a.RMSE["retail"], "rubik/retail-rmse")
			b.ReportMetric(a.RMSE["gemini"]/a.RMSE["retail"], "gemini/retail-rmse")
		}
	}
}

func BenchmarkFig12Decomposition(b *testing.B) {
	cfg := quickCfg()
	cfg.Loads = []float64{0.6}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig12(cfg, "xapian")
		if err != nil {
			b.Fatal(err)
		}
		var full, reqOnly float64
		for _, c := range res.Cells {
			if c.Mechanism == "lr-alg1" {
				if c.FeatureSpace == "request+app" {
					full = c.PowerW
				} else {
					reqOnly = c.PowerW
				}
			}
		}
		if full > 0 {
			b.ReportMetric((1-full/reqOnly)*100, "app-feature-saving-%")
		}
	}
}

func BenchmarkFig13Colocation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig13(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SavingPercent*100, "retail-over-parties-saving-%")
	}
}

func BenchmarkFig14DriftRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14(quickCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.RecoverySeconds, "recovery-s")
		b.ReportMetric(float64(res.Retrains), "retrains")
	}
}

func BenchmarkAblationMoses(b *testing.B) {
	cfg := quickCfg()
	cfg.Loads = []float64{0.9}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(cfg, "moses")
		if err != nil {
			b.Fatal(err)
		}
		var full, noMon float64
		for _, c := range res.Cells {
			switch c.Variant {
			case "full":
				full = c.PowerW
			case "no-monitor":
				noMon = c.PowerW
			}
		}
		if noMon > 0 {
			b.ReportMetric(full/noMon, "full/no-monitor-power")
		}
	}
}

func BenchmarkLoadSpikeResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.LoadSpike(quickCfg(), "xapian")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CollapseSeconds, "qosprime-collapse-s")
	}
}

func BenchmarkOverheadAccounting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Overhead(quickCfg(), "xapian")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MeanDecisionCost)*1e6, "decision-us")
	}
}
