package tune

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"retail/internal/core"
	"retail/internal/experiments"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Config drives one tuning run: a recorded trace, a search spec, and the
// twin's substrate parameters.
type Config struct {
	// Trace is the recorded request stream every candidate replays.
	Trace *workload.Trace
	// Spec is the search specification.
	Spec *Spec
	// Manager names the tuned policy: retail, rubik, gemini or eetl.
	Manager string
	// Workers is the twin's core count (default 8). Match the recording
	// runtime's worker count for transferable winners.
	Workers int
	// SamplesPerLevel sizes the calibration (default 400).
	SamplesPerLevel int
	// Seed drives calibration and the server's service-time jitter —
	// everything except arrivals, which come from the trace.
	Seed int64
	// Parallel is the candidate-replay worker count (0 = GOMAXPROCS,
	// 1 = sequential). Results are merged in canonical candidate order,
	// so rankings and rendered tables are byte-identical at any setting.
	Parallel int
	// GeminiNN overrides Gemini's network structure when tuning gemini.
	GeminiNN *nn.Config
}

// CandidateScore is one replayed candidate with its measured metrics.
type CandidateScore struct {
	Candidate
	// ParamsSHA fingerprints the candidate's params file.
	ParamsSHA string

	Completed  int
	Dropped    int
	Violations int
	QoSMet     bool

	P99       float64 // seconds
	TailAtQoS float64 // seconds, at the app's QoS percentile
	EnergyJ   float64
	AvgPowerW float64

	// Score is the minimized objective: EnergyJ × P99 × (1 + Violations).
	// The product form means a candidate cannot buy energy savings with
	// QoS violations — each violated request multiplies the whole score —
	// while among QoS-clean candidates it reduces to the energy-delay
	// product the DVFS literature minimizes.
	Score float64
	// Rank is the candidate's position in the ranking (1 = winner).
	Rank int
}

// Result is one tuning run: every candidate in canonical enumeration
// order, plus the ranking.
type Result struct {
	SpecName string
	SpecSHA  string
	TraceSHA string
	App      string
	Manager  string
	Workers  int
	Replayed int // requests per replay

	// Candidates is in enumeration order; Ranked holds candidate indexes
	// best-first (score ascending, enumeration index breaking ties).
	Candidates []CandidateScore
	Ranked     []int

	// axisNames are the searched field paths, in axis order — the value
	// columns of the winners table.
	axisNames []string
}

// Winner returns the best-scoring candidate.
func (r *Result) Winner() CandidateScore { return r.Candidates[r.Ranked[0]] }

// score computes the objective for one replay.
func score(res *core.Result) float64 {
	if res.Completed == 0 {
		return math.Inf(1)
	}
	return res.EnergyJ * res.P99 * (1 + float64(res.Violations))
}

// Run replays the trace under every candidate and ranks them. The whole
// run is a pure function of (trace, spec, config): candidates replay
// concurrently but merge in enumeration order, and the objective is
// computed from deterministic simulator results — so two runs at any
// -parallel setting produce byte-identical reports.
func Run(cfg Config) (*Result, error) {
	if cfg.Trace == nil || cfg.Spec == nil {
		return nil, fmt.Errorf("tune: Config needs Trace and Spec")
	}
	// The trace names the app; Resolve refuses an empty or multi-app one.
	src := workload.Source{Replay: cfg.Trace}
	if err := src.Resolve("", false, false); err != nil {
		return nil, fmt.Errorf("tune: %w", err)
	}
	app := src.App
	switch cfg.Manager {
	case "retail", "rubik", "gemini", "eetl":
	default:
		return nil, fmt.Errorf("tune: manager %q not tunable (want retail, rubik, gemini or eetl)", cfg.Manager)
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.SamplesPerLevel <= 0 {
		cfg.SamplesPerLevel = 400
	}
	cands, err := cfg.Spec.Candidates()
	if err != nil {
		return nil, err
	}

	platform := core.DefaultPlatform().WithWorkers(cfg.Workers)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// Reproduce the recording's horizon, as retail sim -replay does.
	warmup, dur := cfg.Trace.Window()

	cells := make([]experiments.SweepCell[*core.Result], len(cands))
	for i, cand := range cands {
		cand := cand
		cells[i] = experiments.SweepCell[*core.Result]{
			Label: fmt.Sprintf("tune/%s/%s/cand=%d", app.Name(), cfg.Manager, cand.Index),
			Run: func() (*core.Result, error) {
				// Each cell builds its own manager from the shared
				// read-only calibration — fresh state per replay.
				m, err := cal.NewManagerParams(cfg.Manager, cfg.GeminiNN, cand.Params)
				if err != nil {
					return nil, err
				}
				return core.Run(core.RunConfig{
					App: app, Platform: platform, Manager: m,
					Replay: cfg.Trace, Warmup: warmup, Duration: dur,
					Seed: cfg.Seed,
				})
			},
		}
	}
	runs, err := experiments.RunSweep(cfg.Parallel, cells)
	if err != nil {
		return nil, err
	}

	traceSHA, err := cfg.Trace.SHA()
	if err != nil {
		return nil, err
	}
	res := &Result{
		SpecName: cfg.Spec.Name,
		SpecSHA:  cfg.Spec.SHA(),
		TraceSHA: traceSHA,
		App:      app.Name(),
		Manager:  cfg.Manager,
		Workers:  cfg.Workers,
		Replayed: len(cfg.Trace.Records),
	}
	for _, a := range cfg.Spec.Axes {
		res.axisNames = append(res.axisNames, a.Field)
	}
	for i, cand := range cands {
		r := runs[i]
		res.Candidates = append(res.Candidates, CandidateScore{
			Candidate: cand,
			ParamsSHA: cand.Params.SHA(),
			Completed: r.Completed, Dropped: r.Dropped,
			Violations: r.Violations, QoSMet: r.QoSMet,
			P99: r.P99, TailAtQoS: r.TailAtQoSPct,
			EnergyJ: r.EnergyJ, AvgPowerW: r.AvgPowerW,
			Score: score(r),
		})
	}
	res.Ranked = make([]int, len(res.Candidates))
	for i := range res.Ranked {
		res.Ranked[i] = i
	}
	sort.SliceStable(res.Ranked, func(a, b int) bool {
		sa, sb := res.Candidates[res.Ranked[a]].Score, res.Candidates[res.Ranked[b]].Score
		if sa != sb {
			return sa < sb
		}
		return res.Ranked[a] < res.Ranked[b]
	})
	for rank, idx := range res.Ranked {
		res.Candidates[idx].Rank = rank + 1
	}
	return res, nil
}

// Render prints the winners table, best candidate first.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tune — %s on %s/%s: %d candidates × %d replayed requests (trace %s, spec %s)\n",
		r.SpecName, r.App, r.Manager, len(r.Candidates), r.Replayed, r.TraceSHA, r.SpecSHA)
	axes := r.axisFields()
	header := append([]string{"rank", "cand"}, axes...)
	header = append(header, "energy_J", "avg_W", "p99", "viol", "qos", "score", "params")
	widths := make([]int, len(header))
	rows := make([][]string, 0, len(r.Candidates))
	for _, idx := range r.Ranked {
		c := r.Candidates[idx]
		row := []string{fmt.Sprintf("%d", c.Rank), fmt.Sprintf("%d", c.Index)}
		for _, v := range c.Values {
			row = append(row, fmt.Sprintf("%.6g", v))
		}
		met := "OK"
		if !c.QoSMet {
			met = "VIOLATED"
		}
		row = append(row,
			fmt.Sprintf("%.2f", c.EnergyJ),
			fmt.Sprintf("%.2f", c.AvgPowerW),
			sim.Time(c.P99).String(),
			fmt.Sprintf("%d", c.Violations),
			met,
			fmt.Sprintf("%.6g", c.Score),
			c.ParamsSHA)
		rows = append(rows, row)
	}
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	w := r.Winner()
	fmt.Fprintf(&b, "winner: candidate %d (params %s) — energy %.2f J, p99 %v, %d violations, score %.6g\n",
		w.Index, w.ParamsSHA, w.EnergyJ, sim.Time(w.P99), w.Violations, w.Score)
	return b.String()
}

// axisFields returns the searched field names in axis order.
func (r *Result) axisFields() []string { return r.axisNames }

// Report converts the run into the versioned obs artifact.
func (r *Result) Report(seed int64) *obs.Report {
	rep := obs.NewReport("tune", seed, obs.HashConfig("tune", r.App, r.Manager,
		r.Workers, r.TraceSHA, r.SpecSHA))
	tr := &obs.TuneReport{
		SpecName: r.SpecName, SpecSHA: r.SpecSHA, TraceSHA: r.TraceSHA,
		App: r.App, Manager: r.Manager, Workers: r.Workers,
		Replayed: r.Replayed, Axes: r.axisFields(),
		WinnerIndex: r.Ranked[0], WinnerParamsSHA: r.Winner().ParamsSHA,
	}
	for _, idx := range r.Ranked {
		c := r.Candidates[idx]
		tr.Candidates = append(tr.Candidates, obs.TuneCandidate{
			Rank: c.Rank, Index: c.Index, Values: c.Values,
			ParamsSHA: c.ParamsSHA,
			Completed: c.Completed, Dropped: c.Dropped,
			Violations: c.Violations, QoSMet: c.QoSMet,
			P99: c.P99, TailAtQoS: c.TailAtQoS,
			EnergyJ: c.EnergyJ, AvgPowerW: c.AvgPowerW,
			Score: c.Score,
		})
	}
	rep.Tune = tr
	return rep
}
