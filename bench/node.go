package main

import (
	"bytes"
	"fmt"
	"math"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// node-deep: core.Run, xapian, one 2-worker node, the bench-owned cohort
// spec scaled to 80% of node capacity, Record tap on.
const (
	nodeWorkers = 2
	nodeLoad    = 0.80
	nodeWarmup  = 2
)

type nodeDeep struct {
	inProcess
	cal  *core.Calibration
	spec *workload.Spec // scaled
}

func (w *nodeDeep) setup(e *env) error {
	spec, err := deepMix()
	if err != nil {
		return err
	}
	cal, err := calibrate(nodeWorkers, e.seed)
	if err != nil {
		return err
	}
	w.cal = cal
	w.spec = spec.ScaledTo(nodeLoad * capacityRPS(cal.App, nodeWorkers))
	_, _, err = w.run(e.seed, e.sz.nodeDur/20, nil)
	return err
}

func (w *nodeDeep) run(seed int64, dur float64, instrument func(*sim.Engine, *server.Server)) (*core.Result, *workload.Trace, error) {
	res, tr, _, err := w.runManaged(seed, dur, instrument)
	return res, tr, err
}

// runManaged also hands back the manager, whose decision counter the
// traced pass reads.
func (w *nodeDeep) runManaged(seed int64, dur float64, instrument func(*sim.Engine, *server.Server)) (*core.Result, *workload.Trace, *manager.ReTail, error) {
	tr, m := workload.NewTrace(w.spec, seed), w.cal.NewReTail()
	res, err := core.Run(core.RunConfig{
		App: w.cal.App, Platform: w.cal.Platform, Manager: m,
		Spec: w.spec, Warmup: nodeWarmup, Duration: sim.Duration(dur), Seed: seed,
		Record: tr, Instrument: instrument,
	})
	return res, tr, m, err
}

func coreDigest(d *digest, r *core.Result) {
	d.int(r.Completed)
	d.int(r.Dropped)
	d.int(r.Violations)
	d.int(r.Transitions)
	for _, v := range []float64{r.EnergyJ, r.MeanLatency, r.P50, r.P95, r.P99, r.TailAtQoSPct} {
		d.f64(v)
	}
	for _, c := range r.Classes {
		d.str(c.Class)
		d.int(c.Completed)
		d.int(c.Dropped)
		for _, v := range []float64{c.P50, c.P95, c.P99, c.TailAtQoSPct} {
			d.f64(v)
		}
	}
}

func nodeDigest(r *core.Result, tr *workload.Trace) string {
	d := newDigest()
	coreDigest(d, r)
	d.int(len(tr.Records))
	if n := len(tr.Records); n > 0 {
		d.f64(float64(tr.Records[n-1].Arrival))
	}
	return d.sum()
}

func checkNode(res *runResult, r *core.Result, tr *workload.Trace, err error, what string) bool {
	if err != nil {
		res.check(false, "%s: %v", what, err)
		return false
	}
	res.check(r.Completed > 0 && len(tr.Records) >= r.Completed+r.Dropped,
		"%s: recorded %d < completed %d + dropped %d", what, len(tr.Records), r.Completed, r.Dropped)
	return true
}

// checkTraceRoundTrip: the recorded trace must survive Encode, ReadTrace
// and CanonicalBytes unchanged.
func checkTraceRoundTrip(res *runResult, tr *workload.Trace) {
	want, err := tr.CanonicalBytes()
	if err == nil {
		var back *workload.Trace
		if back, err = workload.ReadTrace(bytes.NewReader(want)); err == nil {
			var got []byte
			if got, err = back.CanonicalBytes(); err == nil && !bytes.Equal(got, want) {
				err = fmt.Errorf("%d bytes became %d different ones", len(want), len(got))
			}
		}
	}
	res.check(err == nil, "recorded trace round trip: %v", err)
}

func (w *nodeDeep) measure(e *env) error {
	var r *core.Result
	var tr *workload.Trace
	return runUnits(e, func(seed int64) (_ int, err error) {
		if r, tr, err = w.run(seed, e.sz.nodeDur, nil); err != nil {
			return 0, err
		}
		return len(tr.Records), nil
	}, func(i int, seed int64, last bool) {
		checkNode(e.res, r, tr, nil, fmt.Sprintf("unit %d", i))
		if i == 0 {
			e.res.Digest = nodeDigest(r, tr)
			setSimQuality(e.res, r.EnergyJ, r.Completed, r.Dropped, r.Violations)
		} else if last {
			e.res.check(nodeDigest(r, tr) == e.res.Digest, "two runs at seed %d disagree", seed)
			checkTraceRoundTrip(e.res, tr)
		}
		r, tr = nil, nil // a unit's trace must not stay live through the next one
	})
}

// layers is the traced pass: core.Run untraced, then with the hook and
// sink decorators installed through RunConfig.Instrument.
func (w *nodeDeep) layers(e *env) error {
	seed, dur, k := e.seed*1000, e.sz.nodeDur, e.sz.repeats
	var plain, traced *core.Result
	var ptr, ttr *workload.Trace
	wallU, err := best(k, func() (err error) { plain, ptr, err = w.run(seed, dur, nil); return })
	if !checkNode(e.res, plain, ptr, err, "untraced") {
		return err
	}
	e.res.Digest = nodeDigest(plain, ptr)
	setSimQuality(e.res, plain.EnergyJ, plain.Completed, plain.Dropped, plain.Violations)

	// The decorated run with the shortest wall time is the one whose hook
	// totals are kept.
	var eng *sim.Engine
	var srv *server.Server
	var mgr *manager.ReTail
	var ht *hookTotals
	wallT := math.Inf(1)
	before := readGoStats()
	end := e.tr.begin("core", "core.Run")
	for i := 0; i < k && err == nil; i++ {
		var ien *sim.Engine
		var isrv *server.Server
		var im *manager.ReTail
		iht := &hookTotals{}
		if i == 0 {
			iht.tr = e.tr // sampled spans of one decorated run are enough
		}
		var wall float64
		wall, _, err = timedCall(func() (err error) {
			traced, ttr, im, err = w.runManaged(seed, dur, func(en *sim.Engine, s *server.Server) {
				ien, isrv = en, s
				iht.decorate(s)
				iht.wrapSink(en, s)
			})
			return
		})
		if wall < wallT {
			wallT, eng, srv, mgr, ht = wall, ien, isrv, im, iht
		}
	}
	end()
	after := readGoStats()
	if !checkNode(e.res, traced, ttr, err, "traced") {
		return err
	}
	e.res.check(nodeDigest(traced, ttr) == e.res.Digest, "traced and untraced digests differ: the decorators are not pure observers")
	queued := 0
	for _, wk := range srv.Workers() {
		queued += wk.Outstanding()
	}
	e.res.check(len(ttr.Records) == srv.Completed()+srv.Dropped()+queued,
		"recorded %d != completed %d + dropped %d + still queued %d", len(ttr.Records), srv.Completed(), srv.Dropped(), queued)
	if e.selected {
		e.res.set("trace_overhead_frac", wallT/wallU-1)
		e.res.setGoMetrics(before, after, k*len(ttr.Records))
	}

	reqs := float64(len(ptr.Records))
	fired := float64(eng.Fired() - 1) // minus the harness's own wrap event
	clock, _ := e.probe("clock_ns")
	e.res.set("sim.events_per_req", fired/reqs)
	e.res.set("sim.events_per_s", fired/wallU)
	e.res.set("cpu.dvfs_writes_per_req", float64(srv.Socket.DVFSWrites())/reqs)
	e.res.set("cpu.transitions_per_req", float64(srv.Socket.Transitions())/reqs)
	e.res.set("manager.arrival_ns", ht.perReq(hookArrival, reqs, clock))
	e.res.set("manager.start_ns", ht.perReq(hookStart, reqs, clock))
	e.res.set("manager.complete_ns", ht.perReq(hookComplete, reqs, clock))
	hooks := 0.0
	for i := hookArrival; i <= hookComplete; i++ {
		hooks += ht.perReq(i, reqs, clock)
	}
	e.res.set("manager.hooks_ns_per_req", hooks)

	// Budget: the manager and the sink are timed in place; the layers
	// core.Run gives no seam into are costed by the probes.
	e.res.E2ENsPerReq = wallU / reqs * 1e9
	rows := []budgetRow{
		{"manager+policy+predict", hooks, "in place: Hooks decorator, all four hooks"},
		{"stats (tracker, class HDR)", ht.perReq(hookSink, reqs, clock), "in place: CompletedSink decorator"},
	}
	sum := hooks + ht.perReq(hookSink, reqs, clock)
	if gen, ok := e.probe("workload.cohort_gen_ns_per_req"); ok {
		rec, _ := e.probe("workload.trace_record_ns_per_req")
		rows = append(rows, budgetRow{"workload (cohort generator, record)", gen + rec, "probe: cohort generator into a counting sink, Record tap on"})
		sum += gen + rec
	}
	if srvNs, ok := e.probe("server.noop_ns_per_req"); ok {
		set, _ := e.probe("cpu.setlevel_ns")
		writes := float64(srv.Socket.DVFSWrites()) / reqs
		rows = append(rows, budgetRow{"server+cpu (noop hooks, DVFS writes)", srvNs + writes*set,
			fmt.Sprintf("probe: server.noop_ns_per_req + %.2f writes/request x cpu.setlevel_ns", writes)})
		sum += srvNs + writes*set
	}
	if ev, ok := e.probe("sim.event_ns"); ok {
		rows = append(rows, budgetRow{"(of which sim engine)", fired / reqs * ev, fmt.Sprintf("%.2f events/request x sim.event_ns", fired/reqs)})
	}
	if row, ok := e.alg1Row(ht, mgr.Decisions(), reqs); ok {
		rows = append(rows, row)
	}
	e.res.Budget = rows
	e.res.set("core.residual_ns_per_req", e.res.E2ENsPerReq-sum)
	return nil
}
