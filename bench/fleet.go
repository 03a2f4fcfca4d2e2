package main

import (
	"fmt"
	"math"

	"retail/internal/cluster"
	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// fleet-shallow: cluster.RunFleet, xapian, 16 nodes x 2 workers, retail,
// power-of-two, Poisson at 35% of fleet capacity, 2 s warm-up.
const (
	fleetNodes      = 16
	fleetWorkers    = 2
	fleetLoad       = 0.35
	fleetWarmup     = 2
	fleetPolicy     = "retail"
	fleetDispatcher = "power-of-two"
)

type fleetShallow struct {
	inProcess
	cal *core.Calibration
	rps float64
}

func (w *fleetShallow) setup(e *env) error {
	cal, err := calibrate(fleetWorkers, e.seed)
	if err != nil {
		return err
	}
	w.cal = cal
	w.rps = fleetLoad * capacityRPS(cal.App, fleetNodes*fleetWorkers)
	// A short run before timing, so heap growth and first-touch page
	// faults are set-up and not part of the first unit.
	_, err = w.run(e.seed, e.sz.fleetDur/20, nil)
	return err
}

func (w *fleetShallow) run(seed int64, dur float64, mod func(*cluster.FleetConfig)) (*cluster.FleetResult, error) {
	cfg := cluster.FleetConfig{
		Cal: w.cal, Nodes: fleetNodes, WorkersPerNode: fleetWorkers,
		Policy: fleetPolicy, Dispatcher: fleetDispatcher,
		RPS: w.rps, Warmup: fleetWarmup, Duration: sim.Duration(dur), Seed: seed,
	}
	if mod != nil {
		mod(&cfg)
	}
	return cluster.RunFleet(cfg)
}

func fleetDigest(r *cluster.FleetResult) string {
	d := newDigest()
	d.int(r.Completed)
	d.int(r.Dropped)
	d.int(r.Violations)
	d.int(r.Routed)
	d.u64(r.PlacementHash)
	for _, v := range []float64{r.EnergyJ, r.MeanLatency, r.P50, r.P95, r.P99, r.TailAtQoSPct} {
		d.f64(v)
	}
	for _, n := range r.PerNode {
		d.int(n.Completed)
		d.int(n.Dropped)
		d.int(n.Violations)
		d.f64(n.P99)
		d.f64(n.EnergyJ)
	}
	return d.sum()
}

// checkFleet applies the result invariants visible from outside RunFleet:
// Routed counts warm-up arrivals too, so it bounds the measured window.
func checkFleet(res *runResult, r *cluster.FleetResult, err error, what string) bool {
	if err != nil {
		res.check(false, "%s: %v", what, err)
		return false
	}
	res.check(r.Completed > 0 && r.Routed >= r.Completed+r.Dropped,
		"%s: routed %d < completed %d + dropped %d", what, r.Routed, r.Completed, r.Dropped)
	return true
}

func setSimQuality(res *runResult, energyJ float64, completed, dropped, violations int) {
	if completed > 0 {
		res.set("sim_energy_j_per_req", energyJ/float64(completed))
	}
	if completed+dropped > 0 {
		res.set("sim_qos_violation_frac", float64(violations+dropped)/float64(completed+dropped))
	}
}

// measure is the untraced pass: timed units, medians, and a repeat of
// the first unit's seed whose digest must match.
func (w *fleetShallow) measure(e *env) error {
	var r *cluster.FleetResult
	return runUnits(e, func(seed int64) (_ int, err error) {
		if r, err = w.run(seed, e.sz.fleetDur, nil); err != nil {
			return 0, err
		}
		return r.Routed, nil
	}, func(i int, seed int64, last bool) {
		checkFleet(e.res, r, nil, fmt.Sprintf("unit %d", i))
		if i == 0 {
			e.res.Digest = fleetDigest(r)
			setSimQuality(e.res, r.EnergyJ, r.Completed, r.Dropped, r.Violations)
		} else if last {
			e.res.check(fleetDigest(r) == e.res.Digest, "two runs at seed %d disagree", seed)
		}
	})
}

// layers is the traced pass: the real entry point untraced and under a
// span, the build-up ladder that costs the layers RunFleet gives no seam
// into, and the telemetry and ledger observers on against off.
func (w *fleetShallow) layers(e *env) error {
	seed, dur, k := e.seed*1000, e.sz.fleetDur, e.sz.repeats
	var plain, traced *cluster.FleetResult
	wallU, err := best(k, func() (err error) { plain, err = w.run(seed, dur, nil); return })
	if !checkFleet(e.res, plain, err, "untraced") {
		return err
	}
	e.res.Digest = fleetDigest(plain)
	setSimQuality(e.res, plain.EnergyJ, plain.Completed, plain.Dropped, plain.Violations)

	before := readGoStats()
	end := e.tr.begin("cluster", "cluster.RunFleet")
	wallT, err := best(k, func() (err error) { traced, err = w.run(seed, dur, nil); return })
	end()
	after := readGoStats()
	if !checkFleet(e.res, traced, err, "traced") {
		return err
	}
	e.res.check(fleetDigest(traced) == e.res.Digest, "traced and untraced digests differ")
	if e.selected {
		e.res.set("trace_overhead_frac", wallT/wallU-1)
		e.res.setGoMetrics(before, after, k*traced.Routed)
	}
	real := math.Min(wallU, wallT)
	reqs := float64(plain.Routed)

	// Ladder: each rung adds one layer; its delta is that layer's cost in
	// place, engine events included.
	var walls [rungStats + 1]float64
	var top rungResult
	for lvl := rungGenerator; lvl <= rungStats; lvl++ {
		end := e.tr.begin(rungLayer[lvl], "ladder."+rungName[lvl])
		walls[lvl], _ = best(k, func() error { top = w.rung(lvl, seed, dur, nil); return nil })
		end()
		if lvl > rungGenerator {
			e.res.check(top.routed == top.completed+top.dropped+top.queued,
				"ladder %s: routed %d != completed %d + dropped %d + queued %d", rungName[lvl], top.routed, top.completed, top.dropped, top.queued)
		}
	}
	// The top rung replays RunFleet's wiring with RunFleet's seeds, so it
	// must route and complete exactly what the real entry point did.
	e.res.check(top.routed == plain.Routed && top.hash == plain.PlacementHash && top.measured == plain.Completed,
		"ladder top rung diverged from RunFleet: routed %d/%d completed %d/%d", top.routed, plain.Routed, top.measured, plain.Completed)

	per := func(d float64) float64 { return d / reqs * 1e9 }
	e.res.E2ENsPerReq = per(real)
	e.res.Budget = []budgetRow{
		{"workload (poisson generator)", per(walls[rungGenerator]), "ladder: generator into a counting sink"},
		{"server+cpu (noop hooks, routing)", per(walls[rungServer] - walls[rungGenerator]), "ladder: + 16 server.New with NoopHooks behind the dispatcher"},
		{"manager+policy+predict", per(walls[rungManager] - walls[rungServer]), "ladder: + cal.NewReTail().Attach per node"},
		{"stats (latency trackers)", per(walls[rungStats] - walls[rungManager]), "ladder: + CompletedSink into stats.LatencyTracker, quantiles at the end"},
	}
	if ev, ok := e.probe("sim.event_ns"); ok {
		e.res.Budget = append(e.res.Budget, budgetRow{"(of which sim engine)",
			float64(top.fired) / reqs * ev, fmt.Sprintf("%.2f events/request x sim.event_ns", float64(top.fired)/reqs)})
	}
	// One more top-rung run, decorated and untimed, for the depth and
	// decision counts behind the Algorithm 1 estimate.
	ht := &hookTotals{tr: e.tr}
	end = e.tr.begin("manager", "ladder.stats+decorators")
	deco := w.rung(rungStats, seed, dur, ht)
	end()
	e.res.check(deco.hash == top.hash && deco.measured == top.measured, "hook decorators changed the ladder's top rung")
	if row, ok := e.alg1Row(ht, deco.decisions, reqs); ok {
		e.res.Budget = append(e.res.Budget, row)
	}
	e.res.set("manager.ladder_ns_per_req", per(walls[rungManager]-walls[rungServer]))
	e.res.set("cluster.residual_ns_per_req", per(real-walls[rungStats]))

	// Observers on against off, same seed and length.
	for _, obs := range []struct {
		metric, layer string
		mod           func(*cluster.FleetConfig)
	}{
		{"telemetry.attached_overhead_frac", "telemetry", func(c *cluster.FleetConfig) { c.Registry = telemetry.NewRegistry() }},
		{"obs.ledger_overhead_frac", "obs", func(c *cluster.FleetConfig) { c.Ledger = true }},
	} {
		var r *cluster.FleetResult
		end := e.tr.begin(obs.layer, "cluster.RunFleet+"+obs.layer)
		wall, err := best(k, func() (err error) { r, err = w.run(seed, dur, obs.mod); return })
		end()
		if !checkFleet(e.res, r, err, obs.layer+" attached") {
			return err
		}
		e.res.check(fleetDigest(r) == e.res.Digest, "%s observer changed the simulation", obs.layer)
		e.res.set(obs.metric, wall/real-1)
	}
	return nil
}

// Ladder rungs, lowest first.
const (
	rungGenerator = iota
	rungServer
	rungManager
	rungStats
)

var (
	rungName  = [...]string{"generator", "server", "manager", "stats"}
	rungLayer = [...]string{"workload", "server", "manager", "stats"}
)

type rungResult struct {
	routed, completed, dropped, queued int // whole run, warm-up included
	measured                           int // completions in the measured window
	decisions                          int // Algorithm 1 invocations, all nodes
	hash                               uint64
	fired                              uint64
}

// rung rebuilds RunFleet's wiring from the packages' public pieces up to
// and including `level`, with RunFleet's own seed derivations. A non-nil
// ht decorates every node's hooks.
func (w *fleetShallow) rung(level int, seed int64, dur float64, ht *hookTotals) rungResult {
	app, platform := w.cal.App, w.cal.Platform.WithWorkers(fleetWorkers)
	qos := app.QoS()
	e := sim.NewEngine()
	pool := &workload.RequestPool{}
	var rr rungResult
	rr.hash = 14695981039346656037 // FNV-1a offset, as cluster.PlacementHash
	measuring := false

	var srvs []*server.Server
	var mgrs []*manager.ReTail
	sink := func(_ *sim.Engine, r *workload.Request) { rr.routed++; pool.Put(r) }
	var finish func()
	if level >= rungServer {
		disp, err := policy.NewDispatcher(fleetDispatcher, seed)
		if err != nil {
			panic(err) // the name is a constant of this file
		}
		outstanding := make([]int, fleetNodes)
		expect := int(w.rps*dur) + 64
		fleetLat := stats.NewLatencyTracker(0, true)
		fleetLat.ReserveAll(expect)
		lats := make([]*stats.LatencyTracker, fleetNodes)
		for i := 0; i < fleetNodes; i++ {
			srv := server.New(server.Config{
				App: app, Workers: fleetWorkers,
				Grid: platform.Grid, Power: platform.Power, Trans: platform.Trans,
				Seed: server.RandomizedSeed(platform.Seed^seed, int64(i)+1),
			})
			if level >= rungManager {
				m := w.cal.NewReTail()
				m.Attach(e, srv)
				mgrs = append(mgrs, m)
			}
			if ht != nil {
				ht.decorate(srv)
			}
			idx, lat := i, stats.NewLatencyTracker(0, true)
			lat.ReserveAll(expect/fleetNodes + expect/(4*fleetNodes) + 64)
			lats[i] = lat
			srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
				outstanding[idx]--
				rr.completed++
				if measuring {
					rr.measured++
					if level >= rungStats {
						soj := float64(r.Sojourn())
						lat.Add(soj)
						fleetLat.Add(soj)
					}
				}
				pool.Put(r)
			}
			srv.DroppedSink = func(_ *sim.Engine, r *workload.Request) {
				outstanding[idx]--
				rr.dropped++
				pool.Put(r)
			}
			srvs = append(srvs, srv)
		}
		load := func(i int) int { return outstanding[i] }
		sink = func(en *sim.Engine, r *workload.Request) {
			i := disp.Pick(fleetNodes, load)
			rr.hash = (rr.hash ^ uint64(i)) * 1099511628211
			rr.routed++
			outstanding[i]++
			srvs[i].Submit(en, r)
		}
		finish = func() {
			for _, n := range outstanding {
				rr.queued += n
			}
			if level >= rungStats {
				for _, lat := range lats {
					lat.Percentile(99)
				}
				fleetLat.Quantiles(0.50, 0.95, 0.99, qos.Percentile/100)
			}
		}
	}
	gen := workload.NewGenerator(app, w.rps, seed, sink)
	gen.Pool = pool
	gen.Start(e)
	e.At(fleetWarmup, "fleet.measure", func(en *sim.Engine) {
		measuring = true
		for _, s := range srvs {
			s.Socket.ResetEnergy(en.Now())
		}
	})
	e.Run(sim.Time(fleetWarmup + dur))
	gen.Stop()
	if finish != nil {
		finish()
	}
	for _, m := range mgrs {
		rr.decisions += m.Decisions()
	}
	rr.fired = e.Fired()
	return rr
}
