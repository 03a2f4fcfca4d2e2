package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"retail/internal/core"
	"retail/internal/live"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

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
// A cell fails loudly when any of the three breaks, so
// TestWorkloadSweepGolden is a single gate for generation determinism,
// trace round-tripping and multi-class decision parity.

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
	cal, maxRPS, err := calibrate(cfg, app, platform)
	if err != nil {
		return nil, err
	}
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
// trace/decision hashes — the bytes `make golden-check` pins.
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

// quickWorkloadConfig keeps the cohort sweep CI-sized: every builtin
// spec except the chaos overload one, 2000 offered requests per cell.
func quickWorkloadConfig(seed int64) (Config, WorkloadOptions) {
	cfg := Quick()
	cfg.Seed = seed
	opt := WorkloadOptions{
		Workers:         8,
		RequestsPerCell: 2000,
	}
	return cfg, opt
}

// TestWorkloadSweepGolden pins the rendered cohort-spec table — the
// per-spec run stats, the per-SLO-class breakdown, and the canonical
// trace/decision SHA-256 hashes — byte-for-byte against the committed
// golden. Because every cell internally asserts record→replay→re-record
// byte identity and sim↔live classed decision parity, a pass here is
// the full workload determinism proof at golden scale. Refresh with
// -update.
func TestWorkloadSweepGolden(t *testing.T) {
	cfg, opt := quickWorkloadConfig(42)
	res, err := WorkloadSweep(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Render()
	golden := filepath.Join("testdata", "workload_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("workload render diverges from golden at line %d:\n got: %q\nwant: %q\n(run with -update after intentional changes)",
					i+1, gl[i], at(wl, i))
			}
		}
		t.Fatalf("workload render diverges from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
	// The multi-class spec must actually exercise the class dimension.
	sawClasses := 0
	for _, c := range res.Cells {
		if c.Spec == "slo-mix" {
			sawClasses = len(c.Result.Classes)
		}
	}
	if sawClasses < 3 {
		t.Fatalf("slo-mix reported %d SLO classes, want ≥ 3", sawClasses)
	}
}

// TestWorkloadSweepParallelByteIdentical is the workload half of the
// sweep determinism contract: -parallel 1 and -parallel 8 must render
// the same bytes, and every cell's recorded trace and classed decision
// stream must hash identically across parallelism.
func TestWorkloadSweepParallelByteIdentical(t *testing.T) {
	run := func(parallel int) *WorkloadSweepResult {
		cfg, opt := quickWorkloadConfig(42)
		cfg.Parallel = parallel
		// Shrink further: this test runs the grid twice.
		opt.Specs = []string{"steady-poisson", "bursty-mmpp", "slo-mix"}
		opt.RequestsPerCell = 1200
		res, err := WorkloadSweep(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Render() != par.Render() {
		t.Fatal("-parallel 1 and -parallel 8 rendered different workload sweeps")
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i], par.Cells[i]
		if a.TraceSHA != b.TraceSHA {
			t.Fatalf("cell %s: recorded trace hashes diverge across parallelism", a.Spec)
		}
		if a.DecisionSHA != b.DecisionSHA {
			t.Fatalf("cell %s: classed decision streams diverge across parallelism", a.Spec)
		}
	}
}
