package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"retail/internal/core"
	"retail/internal/linalg"
	"retail/internal/manager"
	"retail/internal/stats"
	"retail/internal/workload"
)

// ---------------------------------------------------------------------------
// Fig 1 — ImgDNN service time stays flat while sojourn time grows with RPS.

// Fig1Point is one load point of the Fig 1 series.
type Fig1Point struct {
	RPS        float64
	MeanSvc    float64 // p50 service time, seconds
	P99Sojourn float64
	P50Sojourn float64
}

// Fig1Result reproduces Fig 1.
type Fig1Result struct {
	App    string
	Points []Fig1Point
}

// Fig1 sweeps ImgDNN load on the default (max-frequency) system and
// records service vs sojourn time.
func Fig1(cfg Config) (*Fig1Result, error) {
	app := workload.ByName("imgdnn")
	maxLoad := core.CalibrateMaxLoad(app, cfg.Platform, cfg.Seed)
	runs, err := runSteady(cfg, app, maxLoad, cfg.Loads, []string{"maxfreq"},
		func(string) (manager.Manager, error) { return manager.NewMaxFreq(), nil },
		func(float64, string) bool { return true })
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{App: app.Name()}
	for li, lf := range cfg.Loads {
		r := runs[li][0]
		svc := make([]float64, len(r.Samples))
		for i, s := range r.Samples {
			svc[i] = s.Service
		}
		res.Points = append(res.Points, Fig1Point{
			RPS:        maxLoad * lf,
			MeanSvc:    stats.Percentile(svc, 50),
			P50Sojourn: r.P50,
			P99Sojourn: r.P99,
		})
	}
	return res, nil
}

// Render prints the Fig 1 series.
func (r *Fig1Result) Render() string {
	t := &table{header: []string{"RPS", "service(p50)", "sojourn(p50)", "sojourn(p99)"}}
	for _, p := range r.Points {
		t.add(fmt.Sprintf("%.0f", p.RPS), dur(p.MeanSvc), dur(p.P50Sojourn), dur(p.P99Sojourn))
	}
	return "Fig 1 — " + r.App + ": service time constant, sojourn grows with RPS\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig 2 + Table II — service-time CDFs, median/p90 markers, median:tail.

// Fig2App summarizes one application's service-time distribution.
type Fig2App struct {
	App           string
	QoS           workload.QoS
	Median        float64
	P90           float64
	MedianToTail  float64 // median/p90, Table II's ratio
	CDF           []stats.CDFPoint
	LittleVariant bool // the "little or no variation" category
}

// Fig2Result reproduces Fig 2 and Table II.
type Fig2Result struct {
	Apps []Fig2App
}

// Fig2 profiles each application's intrinsic service times at max
// frequency.
func Fig2(cfg Config) (*Fig2Result, error) {
	res := &Fig2Result{}
	for _, app := range workload.All() {
		rng := rand.New(rand.NewSource(cfg.Seed))
		n := cfg.SamplesPerLevel * 4
		svc := make([]float64, n)
		for i := 0; i < n; i++ {
			svc[i] = float64(app.Generate(rng).ServiceBase)
		}
		sort.Float64s(svc)
		med := stats.PercentileSorted(svc, 50)
		p90 := stats.PercentileSorted(svc, 90)
		res.Apps = append(res.Apps, Fig2App{
			App: app.Name(), QoS: app.QoS(),
			Median: med, P90: p90, MedianToTail: med / p90,
			CDF:           stats.CDF(svc, 50),
			LittleVariant: med/p90 >= 0.8,
		})
	}
	return res, nil
}

// Render prints the Table II rows with an ASCII CDF sparkline per app
// (a near-vertical ramp means little service-time variation).
func (r *Fig2Result) Render() string {
	t := &table{header: []string{"app", "QoS", "median svc", "p90 svc", "median:tail", "category", "CDF"}}
	for _, a := range r.Apps {
		cat := "wide variation"
		if a.LittleVariant {
			cat = "little/no variation"
		}
		t.add(a.App, a.QoS.String(), dur(a.Median), dur(a.P90), f2(a.MedianToTail), cat, renderCDF(a.CDF, 24))
	}
	return "Fig 2 / Table II — service time distribution per app\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig 3 — request-length interpretations: only the right one correlates.

// Fig3Row scores one interpretation of request length.
type Fig3Row struct {
	App          string
	Feature      string
	Pearson      float64
	Correlates   bool
	FitSlope     float64 // LR fit line, seconds per unit
	FitIntercept float64
}

// Fig3Result reproduces Fig 3.
type Fig3Result struct {
	Rows []Fig3Row
}

// Fig3 correlates each candidate length interpretation with service time
// for Moses (phrase chars vs word count) and Sphinx (path length vs audio
// size).
func Fig3(cfg Config) (*Fig3Result, error) {
	cases := []struct{ app, feature string }{
		{"moses", "phrase_chars"},
		{"moses", "word_count"},
		{"sphinx", "path_len"},
		{"sphinx", "audio_mb"},
	}
	res := &Fig3Result{}
	for _, c := range cases {
		app := workload.ByName(c.app)
		rng := rand.New(rand.NewSource(cfg.Seed))
		idx := workload.FeatureIndex(app, c.feature)
		n := cfg.SamplesPerLevel * 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			r := app.Generate(rng)
			xs[i] = r.Features[idx]
			ys[i] = float64(r.ServiceBase)
		}
		rho, err := stats.Pearson(xs, ys)
		if err != nil {
			return nil, err
		}
		slope, intercept, err := linalg.LinearFit(xs, ys)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig3Row{
			App: c.app, Feature: c.feature, Pearson: rho,
			Correlates: rho > 0.8, FitSlope: slope, FitIntercept: intercept,
		})
	}
	return res, nil
}

// Render prints the correlation table.
func (r *Fig3Result) Render() string {
	t := &table{header: []string{"app", "length interpretation", "Pearson ρ", "correlates?", "LR fit"}}
	for _, row := range r.Rows {
		verdict := "no"
		if row.Correlates {
			verdict = "YES"
		}
		t.add(row.App, row.Feature, f3(row.Pearson), verdict,
			fmt.Sprintf("%.3g·x + %.3g", row.FitSlope, row.FitIntercept))
	}
	return "Fig 3 — request-length interpretations vs service time\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig 4 — per-transaction-type service CDFs for Shore and Silo.

// Fig4Type is one transaction type's distribution summary.
type Fig4Type struct {
	Type         string
	Median, P90  float64
	MedianToTail float64
	CDF          []stats.CDFPoint
}

// Fig4App groups the per-type rows of one OLTP engine.
type Fig4App struct {
	App   string
	Types []Fig4Type
}

// Fig4Result reproduces Fig 4.
type Fig4Result struct {
	Apps []Fig4App
}

// Fig4 profiles Shore's and Silo's per-type service distributions.
func Fig4(cfg Config) (*Fig4Result, error) {
	res := &Fig4Result{}
	for _, name := range []string{"shore", "silo"} {
		app := workload.ByName(name)
		typeIdx := workload.FeatureIndex(app, "tx_type")
		rng := rand.New(rand.NewSource(cfg.Seed))
		perType := map[int][]float64{}
		for i := 0; i < cfg.SamplesPerLevel*8; i++ {
			r := app.Generate(rng)
			ty := int(r.Features[typeIdx])
			perType[ty] = append(perType[ty], float64(r.ServiceBase))
		}
		fa := Fig4App{App: name}
		for ty := 0; ty < 4; ty++ {
			svc := perType[ty]
			if len(svc) == 0 {
				continue
			}
			sort.Float64s(svc)
			med := stats.PercentileSorted(svc, 50)
			p90 := stats.PercentileSorted(svc, 90)
			fa.Types = append(fa.Types, Fig4Type{
				Type: workload.TxTypeName(ty), Median: med, P90: p90,
				MedianToTail: med / p90, CDF: stats.CDF(svc, 30),
			})
		}
		res.Apps = append(res.Apps, fa)
	}
	return res, nil
}

// Render prints the per-type distribution table.
func (r *Fig4Result) Render() string {
	t := &table{header: []string{"app", "tx type", "median", "p90", "median:tail"}}
	for _, a := range r.Apps {
		for _, ty := range a.Types {
			t.add(a.App, ty.Type, dur(ty.Median), dur(ty.P90), f2(ty.MedianToTail))
		}
	}
	return "Fig 4 — per-transaction-type service CDFs (Shore/Silo)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig 5 — application features explain the remaining variation.

// Fig5Row is one (app, feature, subset) correlation with its fit line.
type Fig5Row struct {
	App, Feature, Subset string
	Pearson              float64
	FitSlope             float64
	FitIntercept         float64
	N                    int
}

// Fig5Result reproduces Fig 5.
type Fig5Result struct {
	Rows []Fig5Row
}

// Fig5 correlates Xapian's matched-document count, Shore's NEW_ORDER item
// count (split by rollback), and STOCK_LEVEL's distinct-item count with
// service time.
func Fig5(cfg Config) (*Fig5Result, error) {
	res := &Fig5Result{}
	add := func(appName, feature, subset string, filter func(*workload.Request) bool) error {
		app := workload.ByName(appName)
		idx := workload.FeatureIndex(app, feature)
		rng := rand.New(rand.NewSource(cfg.Seed))
		var xs, ys []float64
		for i := 0; i < cfg.SamplesPerLevel*20 && len(xs) < cfg.SamplesPerLevel*2; i++ {
			r := app.Generate(rng)
			if filter != nil && !filter(r) {
				continue
			}
			xs = append(xs, r.Features[idx])
			ys = append(ys, float64(r.ServiceBase))
		}
		if len(xs) < 10 {
			return fmt.Errorf("experiments: too few %s/%s samples", appName, subset)
		}
		rho, err := stats.Pearson(xs, ys)
		if err != nil {
			return err
		}
		slope, intercept, err := linalg.LinearFit(xs, ys)
		if err != nil {
			return err
		}
		res.Rows = append(res.Rows, Fig5Row{
			App: appName, Feature: feature, Subset: subset,
			Pearson: rho, FitSlope: slope, FitIntercept: intercept, N: len(xs),
		})
		return nil
	}
	typeIs := func(app workload.App, ty int) func(*workload.Request) bool {
		idx := workload.FeatureIndex(app, "tx_type")
		return func(r *workload.Request) bool { return int(r.Features[idx]) == ty }
	}
	shore := workload.ByName("shore")
	rbIdx := workload.FeatureIndex(shore, "rollback")
	if err := add("xapian", "doc_count", "all", nil); err != nil {
		return nil, err
	}
	if err := add("shore", "item_count", "NEW_ORDER (commit)", func(r *workload.Request) bool {
		return typeIs(shore, workload.TxNewOrder)(r) && r.Features[rbIdx] == 0
	}); err != nil {
		return nil, err
	}
	if err := add("shore", "item_count", "NEW_ORDER (rollback)", func(r *workload.Request) bool {
		return typeIs(shore, workload.TxNewOrder)(r) && r.Features[rbIdx] == 1
	}); err != nil {
		return nil, err
	}
	if err := add("shore", "distinct_items", "STOCK_LEVEL", typeIs(shore, workload.TxStockLevel)); err != nil {
		return nil, err
	}
	silo := workload.ByName("silo")
	if err := add("silo", "distinct_items", "STOCK_LEVEL", typeIs(silo, workload.TxStockLevel)); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the Fig 5 rows.
func (r *Fig5Result) Render() string {
	t := &table{header: []string{"app", "feature", "subset", "ρ", "fit slope", "N"}}
	for _, row := range r.Rows {
		t.add(row.App, row.Feature, row.Subset, f3(row.Pearson),
			fmt.Sprintf("%.3g s/unit", row.FitSlope), fmt.Sprintf("%d", row.N))
	}
	return "Fig 5 — application features vs service time (with LR fit)\n" + t.String()
}

// ---------------------------------------------------------------------------
// Fig 6 — timeliness of application features (lateness).

// Fig6Row records one application feature's lateness.
type Fig6Row struct {
	App      string
	Feature  string
	Lateness float64
	Usable   bool // under the 0.5 threshold
}

// Fig6Result reproduces Fig 6's timeliness observation.
type Fig6Result struct {
	Rows []Fig6Row
}

// Fig6 tabulates the lateness of every application feature in the suite.
func Fig6(cfg Config) (*Fig6Result, error) {
	res := &Fig6Result{}
	for _, app := range workload.All() {
		for _, s := range app.FeatureSpecs() {
			if s.Lateness == 0 {
				continue
			}
			res.Rows = append(res.Rows, Fig6Row{
				App: app.Name(), Feature: s.Name,
				Lateness: s.Lateness, Usable: s.Lateness <= 0.5,
			})
		}
	}
	return res, nil
}

// Render prints the lateness table.
func (r *Fig6Result) Render() string {
	t := &table{header: []string{"app", "application feature", "lateness", "usable (≤0.5)?"}}
	for _, row := range r.Rows {
		use := "yes"
		if !row.Usable {
			use = "NO — rejected"
		}
		t.add(row.App, row.Feature, f2(row.Lateness), use)
	}
	return "Fig 6 — application feature timeliness\n" + t.String()
}

// renderCDF is a small ASCII sparkline for CDFs in verbose output.
func renderCDF(pts []stats.CDFPoint, width int) string {
	if len(pts) == 0 {
		return ""
	}
	var b strings.Builder
	lo, hi := pts[0].Value, pts[len(pts)-1].Value
	if hi == lo {
		hi = lo + 1
	}
	marks := " .:-=+*#%@"
	for i := 0; i < width; i++ {
		x := lo + (hi-lo)*float64(i)/float64(width-1)
		frac := 0.0
		for _, p := range pts {
			if p.Value <= x {
				frac = p.Fraction
			}
		}
		b.WriteByte(marks[int(frac*float64(len(marks)-1))])
	}
	return b.String()
}
