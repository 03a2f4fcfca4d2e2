package main

import (
	"bytes"
	"fmt"
	"math"

	"retail/internal/core"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/tune"
	"retail/internal/workload"
)

// tune-replay: workload.ReadTrace of pre-encoded bytes, then tune.Run
// (retail, 8 workers, a grid over monitor.guard_band x monitor.step_frac)
// over a trace pre-drawn in set-up from the bench spec.
const (
	tuneWorkers = 8
	tuneLoad    = 0.75
	tuneManager = "retail"
	tuneSamples = 400 // tune.Run's calibration size, needed to replay its winner

	// The timed units replay their candidates one after another. Two
	// replays side by side each shift a 32 KB latency window per
	// completion, and on the two hardware threads of one core (what a
	// 2-vCPU sandbox gets) they evict each other from its L1: the same
	// work then takes 0.4 to 1 s a unit, in phases tens of seconds long.
	// The fan-out is measured by the traced pass (tune.parallel_speedup).
	tuneSequential = 1
	tuneFanOut     = 0 // GOMAXPROCS
)

type tuneReplay struct {
	inProcess
	encoded []byte
	records int
	grid    *tune.Spec
}

func (w *tuneReplay) setup(e *env) error {
	spec, err := deepMix()
	if err != nil {
		return err
	}
	app, err := spec.SingleApp()
	if err != nil {
		return err
	}
	scaled := spec.ScaledTo(tuneLoad * capacityRPS(app, tuneWorkers))
	tr := workload.RecordTrace(scaled, e.seed, sim.Duration(e.sz.tuneHorizon))
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		return err
	}
	w.encoded, w.records = buf.Bytes(), len(tr.Records)
	w.grid = &tune.Spec{Version: tune.SpecVersion, Name: "bench-grid", Mode: "grid", Axes: []tune.Axis{
		{Field: "monitor.guard_band", Min: 0.02, Max: 0.30, Steps: e.sz.tuneSteps},
		{Field: "monitor.step_frac", Min: 0.02, Max: 0.20, Steps: e.sz.tuneSteps},
	}}
	return w.grid.Validate()
}

// run is the timed call: decode, then search on `parallel` workers. tr
// optionally records the two calls as spans.
func (w *tuneReplay) run(seed int64, parallel int, tr *tracer) (trace *workload.Trace, res *tune.Result, decodeS, tuneS float64, err error) {
	end := tr.begin("workload", "workload.ReadTrace")
	decodeS, _, err = timedCall(func() (err error) { trace, err = workload.ReadTrace(bytes.NewReader(w.encoded)); return })
	end()
	if err != nil {
		return
	}
	end = tr.begin("tune", "tune.Run")
	tuneS, _, err = timedCall(func() (err error) {
		res, err = tune.Run(tune.Config{Trace: trace, Spec: w.grid, Manager: tuneManager, Workers: tuneWorkers, Seed: seed, Parallel: parallel})
		return
	})
	end()
	return
}

func tuneDigest(r *tune.Result) string {
	d := newDigest()
	d.str(r.TraceSHA)
	for _, c := range r.Candidates {
		d.str(c.ParamsSHA)
		d.int(c.Completed)
		d.int(c.Dropped)
		d.int(c.Violations)
		d.int(c.Rank)
		for _, v := range []float64{c.P99, c.TailAtQoS, c.EnergyJ, c.Score} {
			d.f64(v)
		}
	}
	return d.sum()
}

func (w *tuneReplay) check(res *runResult, r *tune.Result, err error, what string) bool {
	if err != nil {
		res.check(false, "%s: %v", what, err)
		return false
	}
	ok := r.Replayed == w.records && len(r.Candidates) > 0
	for _, c := range r.Candidates {
		ok = ok && c.Completed > 0 && c.Completed+c.Dropped <= r.Replayed
	}
	res.check(ok, "%s: %d candidates over %d records (want %d) with a candidate retiring nothing or too much", what, len(r.Candidates), r.Replayed, w.records)
	return true
}

// checkWinner replays the winner alone through core.Run, with its params
// taken through their file form, and expects the scored metrics back bit
// for bit. The calibration and horizon split repeat tune.Run's.
func (w *tuneReplay) checkWinner(res *runResult, trace *workload.Trace, r *tune.Result, seed int64) {
	win := r.Winner()
	err := func() error {
		js, err := win.Params.CanonicalJSON()
		if err != nil {
			return err
		}
		params, err := policy.ParseParams(bytes.NewReader(js))
		if err != nil {
			return err
		}
		app := workload.ByName(r.App)
		platform := core.DefaultPlatform().WithWorkers(tuneWorkers)
		cal, err := core.Calibrate(app, platform, tuneSamples, seed)
		if err != nil {
			return err
		}
		m, err := cal.NewManagerParams(tuneManager, nil, params)
		if err != nil {
			return err
		}
		span := sim.Duration(trace.Records[len(trace.Records)-1].Arrival)
		alone, err := core.Run(core.RunConfig{App: app, Platform: platform, Manager: m,
			Replay: trace, Warmup: span / 6, Duration: span - span/6, Seed: seed})
		if err != nil {
			return err
		}
		same := alone.Completed == win.Completed && alone.Dropped == win.Dropped && alone.Violations == win.Violations
		for _, p := range [][2]float64{{alone.P99, win.P99}, {alone.TailAtQoSPct, win.TailAtQoS}, {alone.EnergyJ, win.EnergyJ}} {
			same = same && math.Float64bits(p[0]) == math.Float64bits(p[1])
		}
		if !same {
			return fmt.Errorf("standalone p99 %v energy %v violations %d, scored p99 %v energy %v violations %d",
				alone.P99, alone.EnergyJ, alone.Violations, win.P99, win.EnergyJ, win.Violations)
		}
		return nil
	}()
	res.check(err == nil, "winner replayed standalone: %v", err)
}

func (w *tuneReplay) measure(e *env) error {
	var r *tune.Result
	var trace *workload.Trace
	return runUnits(e, func(seed int64) (_ int, err error) {
		if trace, r, _, _, err = w.run(seed, tuneSequential, nil); err != nil {
			return 0, err
		}
		return len(r.Candidates) * r.Replayed, nil
	}, func(i int, seed int64, last bool) {
		w.check(e.res, r, nil, fmt.Sprintf("unit %d", i))
		if i == 0 {
			e.res.Digest = tuneDigest(r)
		} else if last {
			e.res.check(tuneDigest(r) == e.res.Digest, "two runs at seed %d disagree", seed)
			w.checkWinner(e.res, trace, r, seed)
		}
		r, trace = nil, nil // a unit's decoded trace must not stay live through the next one
	})
}

func (w *tuneReplay) layers(e *env) error {
	seed := e.seed * 1000
	var plain, traced *tune.Result
	var trace *workload.Trace
	wallU, _, err := timedCall(func() (err error) { _, plain, _, _, err = w.run(seed, tuneFanOut, nil); return })
	if !w.check(e.res, plain, err, "untraced") {
		return err
	}
	e.res.Digest = tuneDigest(plain)

	var decodeS, tuneS float64
	before := readGoStats()
	wallT, cpuT, err := timedCall(func() (err error) { trace, traced, decodeS, tuneS, err = w.run(seed, tuneFanOut, e.tr); return })
	after := readGoStats()
	if !w.check(e.res, traced, err, "traced") {
		return err
	}
	e.res.check(tuneDigest(traced) == e.res.Digest, "traced and untraced digests differ")
	w.checkWinner(e.res, trace, traced, seed)
	reqs := float64(len(traced.Candidates) * traced.Replayed)
	if e.selected {
		e.res.set("trace_overhead_frac", wallT/wallU-1)
		e.res.setGoMetrics(before, after, int(reqs))
	}
	e.res.set("tune.candidates_per_s", float64(len(traced.Candidates))/tuneS)
	e.res.set("tune.replayed_req_per_s", reqs/tuneS)
	// The same search on one worker: what the fan-out buys on this host.
	_, seq, _, seqS, err := w.run(seed, tuneSequential, nil)
	if !w.check(e.res, seq, err, "sequential") {
		return err
	}
	e.res.check(tuneDigest(seq) == e.res.Digest, "sequential and fanned-out digests differ")
	e.res.set("tune.parallel_speedup", seqS/tuneS)

	// Budget in CPU time per replayed request: candidates run in parallel.
	e.res.E2ENsPerReq = cpuT / reqs * 1e9
	e.res.Budget = []budgetRow{
		{"workload (trace decode)", decodeS / reqs * 1e9, "span: workload.ReadTrace, once per search"},
	}
	if pl, ok := e.probe("workload.player_ns_per_req"); ok {
		e.res.Budget = append(e.res.Budget, budgetRow{"workload (player)", pl, "probe: Player into a counting sink"})
	}
	if cal, ok := e.probe("predict.calibrate_ms"); ok {
		e.res.Budget = append(e.res.Budget, budgetRow{"predict (calibration)", cal * 1e6 / reqs, "probe: predict.calibrate_ms, once per search"})
	}
	return nil
}
