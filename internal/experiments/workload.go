// Workload sweep: the determinism and parity gate for the cohort-spec
// generation subsystem (internal/workload).
//
// Every cell runs one builtin cohort spec through the simulator with a
// trace recorder tapped in, then proves three things about the recording:
//
//  1. the trace's canonical SHA-256 is a pure function of (spec, seed,
//     horizon) — the rendered table pins it against the committed golden;
//  2. record → replay → re-record round-trips byte-identically through
//     the simulator (the replayed stream regenerates the same bytes);
//  3. the recorded decision inputs replay through the live runtime's
//     policy to a byte-identical per-SLO-class decision stream
//     (EncodeClassedDecisions: level + scaled QoS′ bits + class byte).
//
// A cell fails loudly when any of the three breaks, so `make
// workload-check` is a single gate for generation determinism, trace
// round-tripping and multi-class decision parity.
package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"retail/internal/core"
	"retail/internal/live"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// WorkloadOptions sizes the cohort-spec sweep.
type WorkloadOptions struct {
	// Specs are builtin spec names (nil = every builtin except the chaos
	// overload spec, which deliberately drowns the server).
	Specs []string
	// Workers is the simulated pool size (default 8).
	Workers int
	// Load is the fraction of the app's calibrated max the spec's
	// aggregate rate is scaled to (default 0.7).
	Load float64
	// RequestsPerCell targets this many offered requests per cell; the
	// measured duration is RequestsPerCell/RPS (default 3000).
	RequestsPerCell int
}

func (o WorkloadOptions) withDefaults() WorkloadOptions {
	if o.Specs == nil {
		for _, name := range workload.BuiltinSpecNames() {
			if name != "overload-mmpp" {
				o.Specs = append(o.Specs, name)
			}
		}
	}
	if o.Workers <= 0 {
		o.Workers = 8
	}
	if o.Load <= 0 {
		o.Load = 0.7
	}
	if o.RequestsPerCell <= 0 {
		o.RequestsPerCell = 3000
	}
	return o
}

// WorkloadCell is one spec's outcome: the measured run plus the three
// determinism artifacts the sweep pins.
type WorkloadCell struct {
	Spec    string
	SpecSHA string // spec identity (workload.Spec.SHA)
	Clients int
	Result  *core.Result

	TraceSHA  string // canonical SHA-256 of the recorded trace
	Records   int
	RoundTrip bool // record→replay→re-record byte identity held

	Decisions   int
	DecisionSHA string // SHA-256 of the classed sim decision stream
	ParityOK    bool   // live policy replayed to identical bytes
}

// WorkloadSweepResult holds the per-spec grid.
type WorkloadSweepResult struct {
	App     string
	QoS     workload.QoS
	Workers int
	Load    float64
	MaxRPS  float64
	Cells   []WorkloadCell
}

// WorkloadSweep runs every requested spec as an independent cell through
// RunSweep under cfg.Parallel; cells share only the read-only
// calibration, and results merge in spec order, so the rendered table is
// byte-identical at every parallelism setting.
func WorkloadSweep(cfg Config, opt WorkloadOptions) (*WorkloadSweepResult, error) {
	opt = opt.withDefaults()
	// Every builtin spec targets one app; resolve it from the first spec
	// and insist the rest agree (one calibration serves the whole sweep).
	var app workload.App
	specs := make([]*workload.Spec, 0, len(opt.Specs))
	for _, name := range opt.Specs {
		spec, err := workload.LoadSpec(name)
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		sa, err := spec.SingleApp()
		if err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		if app == nil {
			app = sa
		} else if sa.Name() != app.Name() {
			return nil, fmt.Errorf("experiments: workload sweep mixes apps %q and %q", app.Name(), sa.Name())
		}
		specs = append(specs, spec)
	}
	for _, s := range app.FeatureSpecs() {
		if s.Lateness > 0 {
			return nil, fmt.Errorf("experiments: app %q has late feature %q; the static-feature trace needs a zero-lateness app", app.Name(), s.Name)
		}
	}
	platform := cfg.Platform.WithWorkers(opt.Workers)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxRPS := core.CalibrateMaxLoad(app, platform, cfg.Seed)
	rps := opt.Load * maxRPS
	dur := sim.Duration(float64(opt.RequestsPerCell) / rps)
	if dur < 2 {
		dur = 2
	}

	res := &WorkloadSweepResult{
		App: app.Name(), QoS: app.QoS(),
		Workers: opt.Workers, Load: opt.Load, MaxRPS: maxRPS,
	}
	cells := make([]SweepCell[*WorkloadCell], 0, len(specs))
	for _, spec := range specs {
		spec := spec
		cells = append(cells, SweepCell[*WorkloadCell]{
			Label: fmt.Sprintf("workload/%s/%s", app.Name(), spec.Name),
			Run: func() (*WorkloadCell, error) {
				return runWorkloadCell(cfg, cal, platform, spec, rps, dur)
			},
		})
	}
	runs, err := RunSweep(cfg.Parallel, cells)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	for _, c := range runs {
		res.Cells = append(res.Cells, *c)
	}
	return res, nil
}

// frozenReTail builds a ReTail manager with retraining disabled (no
// training set), so the model the live policy replays against is
// bit-identical to the one the recording run consulted.
func frozenReTail(cal *core.Calibration) *manager.ReTail {
	mcfg := retailConfig(cal, policy.Params{})
	mcfg.Layout = cal.Layout
	mcfg.Model = cal.Model
	return manager.NewReTail(cal.App.QoS(), mcfg)
}

// retailConfig is the paper's ReTail configuration for cal's application
// around a fresh policy value built from p; callers fill the model,
// layout and training set.
func retailConfig(cal *core.Calibration, p policy.Params) manager.ReTailConfig {
	pol, err := policy.New("retail", p, manager.SimEnv(cal.App.QoS(), cal.Platform.Grid, nil, p))
	if err != nil {
		panic(err) // a grid and the simulator posture are all retail needs
	}
	c := manager.DefaultReTailConfig()
	c.Policy = pol.(*policy.Retail)
	return c
}

func runWorkloadCell(cfg Config, cal *core.Calibration, platform core.Platform, spec *workload.Spec, rps float64, dur sim.Duration) (*WorkloadCell, error) {
	app := cal.App
	scaled := spec.ScaledTo(rps)
	_, scales := scaled.Classes()

	// Recording run: the v2 trace taps the generator→server path while
	// the policy trace records everything the decision core consumed.
	m1 := frozenReTail(cal)
	rec := &traceRecorder{specs: app.FeatureSpecs(), tr: &policy.Trace{
		Features: map[uint64][]float64{},
		Gens:     map[uint64]policy.Time{},
		Classes:  map[uint64]uint8{},
	}}
	trace := workload.NewTrace(scaled, cfg.Seed)
	run := core.RunConfig{
		App: app, Platform: platform, Manager: m1,
		Spec: scaled, Record: trace,
		Warmup: dur / 5, Duration: dur, Seed: cfg.Seed,
		Instrument: func(e *sim.Engine, srv *server.Server) {
			srv.Observe(rec)
			policy.RunMonitor(parityTimer{e}, m1.MonitorSettings().Interval, "parity.tick",
				func(now policy.Time) {
					rec.tr.Events = append(rec.tr.Events, policy.TraceEvent{Kind: policy.TickEvent, At: now})
				})
		},
	}
	result, err := core.Run(run)
	if err != nil {
		return nil, fmt.Errorf("workload %s: record run: %w", spec.Name, err)
	}
	traceBytes, err := trace.CanonicalBytes()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	traceSum := sha256.Sum256(traceBytes)

	// Round trip: replay the trace through a fresh simulated run with a
	// second recorder tapped in; the re-recording must be byte-identical.
	reRec := workload.NewTrace(scaled, cfg.Seed)
	if _, err := core.Run(core.RunConfig{
		App: app, Platform: platform, Manager: frozenReTail(cal),
		Replay: trace, Record: reRec,
		Warmup: dur / 5, Duration: dur, Seed: cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("workload %s: replay run: %w", spec.Name, err)
	}
	reBytes, err := reRec.CanonicalBytes()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", spec.Name, err)
	}
	roundTrip := string(traceBytes) == string(reBytes)
	if !roundTrip {
		return nil, fmt.Errorf("workload %s: record→replay→re-record diverged (%d vs %d bytes)",
			spec.Name, len(traceBytes), len(reBytes))
	}

	// Live parity: replay the recorded decision inputs through the live
	// runtime's ReTail policy with the spec's class targets and demand a
	// byte-identical classed decision stream.
	simStream := EncodeClassedDecisions(rec.decisions)
	replayed := live.ReplayDecisions(rec.tr, cal.Model, platform.Grid,
		m1.MonitorSettings(), policy.NewClassTargets(scales))
	liveStream := EncodeClassedDecisions(replayed)
	parityOK := string(simStream) == string(liveStream)
	if !parityOK {
		return nil, fmt.Errorf("workload %s: live policy diverged from simulator (%d vs %d decisions)",
			spec.Name, len(rec.decisions), len(replayed))
	}
	decSum := sha256.Sum256(simStream)

	clients := 0
	for _, c := range scaled.Cohorts {
		clients += c.Clients
	}
	return &WorkloadCell{
		Spec:    spec.Name,
		SpecSHA: spec.SHA(),
		Clients: clients,
		Result:  result,

		TraceSHA:  hex.EncodeToString(traceSum[:]),
		Records:   len(trace.Records),
		RoundTrip: roundTrip,

		Decisions:   len(rec.decisions),
		DecisionSHA: hex.EncodeToString(decSum[:]),
		ParityOK:    parityOK,
	}, nil
}

// Render prints the grid, the per-SLO-class breakdown, and the full
// trace/decision hashes — the bytes `make workload-check` pins.
func (r *WorkloadSweepResult) Render() string {
	t := &table{header: []string{"spec", "clients", "rps", "completed",
		"dropped", "p50", "p99", "tail@QoS", "QoS", "records", "roundtrip",
		"decisions", "parity"}}
	for _, c := range r.Cells {
		res := c.Result
		met := "miss"
		if res.QoSMet {
			met = "met"
		}
		t.add(c.Spec, strconv.Itoa(c.Clients), f2(res.RPS),
			strconv.Itoa(res.Completed), strconv.Itoa(res.Dropped),
			dur(res.P50), dur(res.P99), dur(res.TailAtQoSPct), met,
			strconv.Itoa(c.Records), okOrFail(c.RoundTrip),
			strconv.Itoa(c.Decisions), okOrFail(c.ParityOK))
	}
	cl := &table{header: []string{"spec", "class", "scale", "completed",
		"dropped", "p50", "p99", "tail@QoS", "target", "QoS"}}
	for _, c := range r.Cells {
		for _, cr := range c.Result.Classes {
			met := "miss"
			if cr.QoSMet {
				met = "met"
			}
			cl.add(c.Spec, cr.Class, f2(cr.QoSScale),
				strconv.Itoa(cr.Completed), strconv.Itoa(cr.Dropped),
				dur(cr.P50), dur(cr.P99), dur(cr.TailAtQoSPct),
				dur(cr.QoSTarget), met)
		}
	}
	hashes := ""
	for _, c := range r.Cells {
		hashes += fmt.Sprintf("trace-sha256    %-16s %s\n", c.Spec, c.TraceSHA)
	}
	for _, c := range r.Cells {
		hashes += fmt.Sprintf("decision-sha256 %-16s %s\n", c.Spec, c.DecisionSHA)
	}
	return fmt.Sprintf(
		"Workload sweep: %s cohort specs at %.2f×max on %d workers (QoS p%.0f ≤ %v, max %.0f RPS)\n\n%s\nPer-SLO-class latency:\n\n%s\nCanonical hashes (provenance masked):\n\n%s",
		r.App, r.Load, r.Workers, r.QoS.Percentile, r.QoS.Latency,
		r.MaxRPS, t, cl, hashes)
}

func okOrFail(ok bool) string {
	if ok {
		return "ok"
	}
	return "FAIL"
}
