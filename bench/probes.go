package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// The probes cost one public function each, outside any workload, with
// the workloads' own inputs (the calibrated xapian model, the bench
// spec). They are the rungs and multipliers the budget tables use where
// a run offers no seam, and the names later issues quote for a layer's
// unit cost.

// probeState is what the probes leave for the workload passes.
type probeState struct {
	vals map[string]float64
	// gemCal is the 4-worker calibration whose Gemini network nn.train_s
	// trained; the sweep's budget reuses it.
	gemCal *core.Calibration
}

func (e *env) probe(name string) (float64, bool) {
	if e.shared == nil {
		return 0, false
	}
	v, ok := e.shared.vals[name]
	return v, ok
}

const probeBatches = 3

// nsPerOp times fn(n) probeBatches times and returns the median ns per op.
func nsPerOp(n int, fn func(n int)) float64 {
	samples := make([]float64, probeBatches)
	for b := range samples {
		t0 := time.Now()
		fn(n)
		samples[b] = float64(time.Since(t0)) / float64(n)
	}
	return median(samples)
}

var probeSink float64 // keeps probed results alive

// runProbes measures every probe-owned metric into res and returns the
// values for the budget tables.
func runProbes(res *runResult, tr *tracer, sz sizes, seed int64) (*probeState, error) {
	ps := &probeState{vals: map[string]float64{}}
	set := func(name string, v float64) {
		ps.vals[name] = v
		if metricByName(name) != nil {
			res.set(name, v)
		}
	}
	scale := func(n int) int {
		if m := int(float64(n) * sz.probe); m > 64 {
			return m
		}
		return 64
	}
	probe := func(layer, name string, fn func()) {
		end := tr.begin(layer, "probe."+name)
		fn()
		end()
	}

	app := workload.ByName(benchApp)
	var cal *core.Calibration
	var err error
	probe("predict", "calibrate", func() {
		samples := make([]float64, probeBatches)
		for b := range samples {
			t0 := time.Now()
			if cal, err = calibrate(nodeWorkers, seed); err != nil {
				return
			}
			samples[b] = float64(time.Since(t0)) / 1e6
		}
		set("predict.calibrate_ms", median(samples))
	})
	if err != nil {
		return nil, err
	}
	platform := cal.Platform
	grid := platform.Grid
	rng := rand.New(rand.NewSource(seed))
	feats := make([][]float64, 512)
	for i := range feats {
		feats[i] = app.Generate(rng).Features
	}

	probe("bench", "clock", func() {
		set("clock_ns", nsPerOp(scale(2_000_000), func(n int) {
			var last time.Time
			for i := 0; i < n; i++ {
				last = time.Now()
			}
			probeSink += float64(last.Nanosecond())
		}))
	})

	// sim: schedule+fire of a no-op event with 32 chains pending, about
	// what fleet-shallow keeps queued (16 monitors, the generator, the
	// busy workers' completions).
	probe("sim", "event", func() {
		set("sim.event_ns", nsPerOp(scale(2_000_000), func(n int) {
			e := sim.NewEngine()
			type chain struct{ lcg uint32 }
			fired := 0
			var fire func(*sim.Engine, any)
			fire = func(en *sim.Engine, arg any) {
				if fired++; fired >= n {
					en.Stop()
					return
				}
				c := arg.(*chain)
				c.lcg = c.lcg*1664525 + 1013904223
				en.AfterCall(sim.Duration(1e-4*(1+float64(c.lcg>>24)/256)), "probe.event", fire, c)
			}
			for i := 0; i < 32; i++ {
				e.AfterCall(sim.Duration(1e-5*float64(i+1)), "probe.event", fire, &chain{lcg: uint32(i)})
			}
			e.RunAll()
		}))
	})
	less := func(raw, sub float64) float64 {
		if raw > sub {
			return raw - sub
		}
		return 0
	}

	// workload: generators into a counting sink, on their own engine, so
	// each figure includes the one engine event a request's arrival is.
	genRPS := nodeLoad * capacityRPS(app, nodeWorkers)
	// drive runs one generator for n requests' worth of virtual time.
	drive := func(n int, start func(e *sim.Engine, sink func(*sim.Engine, *workload.Request), pool *workload.RequestPool) (stop func())) (wall float64, got int) {
		e := sim.NewEngine()
		pool := &workload.RequestPool{}
		stop := start(e, func(_ *sim.Engine, r *workload.Request) { got++; pool.Put(r) }, pool)
		t0 := time.Now()
		e.Run(sim.Time(float64(n) / genRPS))
		stop()
		return float64(time.Since(t0)), got
	}
	perReq := func(n int, start func(*sim.Engine, func(*sim.Engine, *workload.Request), *workload.RequestPool) func()) float64 {
		samples := make([]float64, probeBatches)
		for b := range samples {
			wall, got := drive(n, start)
			if got < 1 {
				got = 1
			}
			samples[b] = wall / float64(got)
		}
		return median(samples)
	}
	var poissonRaw float64
	probe("workload", "poisson_gen", func() {
		poissonRaw = perReq(scale(400_000), func(e *sim.Engine, sink func(*sim.Engine, *workload.Request), pool *workload.RequestPool) func() {
			g := workload.NewGenerator(app, genRPS, seed, sink)
			g.Pool = pool
			g.Start(e)
			return g.Stop
		})
		set("workload.poisson_gen_ns_per_req", poissonRaw)
	})
	spec, err := deepMix()
	if err != nil {
		return nil, err
	}
	spec = spec.ScaledTo(genRPS)
	cohort := func(tap *workload.Trace) func(*sim.Engine, func(*sim.Engine, *workload.Request), *workload.RequestPool) func() {
		return func(e *sim.Engine, sink func(*sim.Engine, *workload.Request), pool *workload.RequestPool) func() {
			if tap != nil {
				tap.Records = tap.Records[:0]
				sink = tap.RecordSink(sink)
			}
			g := workload.NewCohortGenerator(spec, seed, sink)
			g.Pool = pool
			g.Start(e)
			return g.Stop
		}
	}
	nTrace := scale(200_000)
	var cohortRaw float64
	probe("workload", "cohort_gen", func() {
		cohortRaw = perReq(nTrace, cohort(nil))
		set("workload.cohort_gen_ns_per_req", cohortRaw)
	})
	tap := workload.NewTrace(spec, seed)
	probe("workload", "trace_record", func() {
		set("workload.trace_record_ns_per_req", less(perReq(nTrace, cohort(tap)), cohortRaw))
	})
	probe("workload", "player", func() {
		raw := perReq(len(tap.Records), func(e *sim.Engine, sink func(*sim.Engine, *workload.Request), pool *workload.RequestPool) func() {
			p := workload.NewPlayer(tap, sink)
			p.Pool = pool
			p.Start(e)
			return p.Stop
		})
		set("workload.player_ns_per_req", raw)
	})
	probe("workload", "trace_codec", func() {
		var buf bytes.Buffer
		enc := nsPerOp(len(tap.Records), func(int) {
			buf.Reset()
			if e := tap.Encode(&buf); e != nil {
				err = e
			}
		})
		dec := nsPerOp(len(tap.Records), func(int) {
			if _, e := workload.ReadTrace(bytes.NewReader(buf.Bytes())); e != nil {
				err = e
			}
		})
		set("workload.trace_encode_mrec_per_s", 1e3/enc)
		set("workload.trace_decode_mrec_per_s", 1e3/dec)
		set("workload.trace_bytes_per_rec", float64(buf.Len())/float64(len(tap.Records)))
	})
	if err != nil {
		return nil, err
	}

	// server + cpu
	probe("server", "noop", func() {
		raw := perReq(scale(400_000), func(e *sim.Engine, sink func(*sim.Engine, *workload.Request), pool *workload.RequestPool) func() {
			srv := server.New(server.Config{App: app, Workers: nodeWorkers, Grid: grid, Power: platform.Power, Trans: platform.Trans, Seed: seed})
			srv.CompletedSink = sink
			g := workload.NewGenerator(app, genRPS, seed, srv.Submit)
			g.Pool = pool
			g.Start(e)
			return g.Stop
		})
		set("server.noop_ns_per_req", less(raw, poissonRaw))
	})
	probe("cpu", "setlevel", func() {
		set("cpu.setlevel_ns", nsPerOp(scale(500_000), func(n int) {
			e := sim.NewEngine()
			c := cpu.NewSocket(1, grid, platform.Power, platform.Trans, seed).Cores[0]
			c.SetBusy(e, true)
			for i := 0; i < n; i++ {
				c.SetLevel(e, cpu.Level(i%grid.Levels()))
				e.Run(e.Now() + sim.Millisecond) // lets the transition land and energy integrate
			}
			probeSink += c.EnergyJoules(e.Now())
		}))
	})

	// policy + predict
	for _, q := range []struct {
		name  string
		depth int
	}{{"policy.alg1_ns_q1", 1}, {"policy.alg1_ns_q8", 8}, {"policy.alg1_ns_q64", 64}} {
		q := q
		probe("policy", "alg1", func() {
			p := &probePipeline{model: cal.Model, feats: feats[:q.depth]}
			// A budget a quarter above the pipeline's drain time at max
			// frequency: low levels fail near the tail, so the whole
			// depth is examined at several levels, as under real load.
			budget := 0.0
			for i := 0; i < q.depth; i++ {
				budget += p.Predict(grid.MaxLevel(), i)
			}
			budget *= 1.25
			set(q.name, nsPerOp(scale(400_000/q.depth), func(n int) {
				for i := 0; i < n; i++ {
					lvl, _ := policy.Alg1(p, 0, budget, grid.MaxLevel(), false)
					probeSink += float64(lvl)
				}
			}))
		})
	}
	probe("policy", "dispatch_pick", func() {
		d, derr := policy.NewDispatcher(fleetDispatcher, seed)
		if derr != nil {
			err = derr
			return
		}
		loads := make([]int, fleetNodes)
		load := func(i int) int { return loads[i] }
		set("policy.dispatch_pick_ns", nsPerOp(scale(4_000_000), func(n int) {
			for i := 0; i < n; i++ {
				k := d.Pick(fleetNodes, load)
				loads[k] = (loads[k] + 1) & 3
			}
		}))
	})
	if err != nil {
		return nil, err
	}
	probe("predict", "lr_predict", func() {
		set("predict.lr_predict_ns", nsPerOp(scale(4_000_000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += cal.Model.Predict(cpu.Level(i%grid.Levels()), feats[i&511])
			}
		}))
	})

	// nn: Gemini's network, trained once; the forward pass needs it trained.
	probe("nn", "train", func() {
		if ps.gemCal, err = calibrate(sweepWorkers, seed); err != nil {
			return
		}
		t0 := time.Now()
		var model *predict.NNModel
		if model, err = ps.gemCal.GeminiModel(sz.gemNN); err != nil {
			return
		}
		set("nn.train_s", time.Since(t0).Seconds())
		set("nn.forward_us", nsPerOp(scale(2_000), func(n int) {
			for i := 0; i < n; i++ {
				probeSink += model.Predict(grid.MaxLevel(), feats[i&511])
			}
		})/1e3)
	})
	if err != nil {
		return nil, err
	}

	// stats
	probe("stats", "tracker_add", func() {
		n := scale(200_000)
		set("stats.tracker_add_ns", nsPerOp(n, func(n int) {
			t := stats.NewLatencyTracker(0, true)
			t.ReserveAll(n)
			for i := 0; i < n; i++ {
				t.Add(float64(i&1023) * 1e-6)
			}
		}))
	})
	probe("stats", "quantiles", func() {
		t := stats.NewLatencyTracker(0, true)
		for i, n := 0, scale(500_000); i < n; i++ {
			t.Add(rng.Float64() * 1e-2)
		}
		set("stats.quantiles_ms", nsPerOp(1, func(int) { probeSink += t.Quantiles(0.50, 0.95, 0.99, 0.99)[0] })/1e6)
	})
	probe("stats", "hdr_record", func() {
		var h stats.HDR
		set("stats.hdr_record_ns", nsPerOp(scale(8_000_000), func(n int) {
			for i := 0; i < n; i++ {
				h.Record(int64(1000 + i&0xfffff))
			}
		}))
	})

	// live: the wire codec on the public types, and the mock backend.
	probe("live", "json", func() {
		var wire bytes.Buffer
		enc := json.NewEncoder(&wire)
		n := scale(100_000)
		for i := 0; i < n; i++ {
			enc.Encode(live.Request{ID: uint64(i), GenNs: time.Now().UnixNano(), Features: feats[i&511]})
		}
		set("live.json_req_decode_ns", nsPerOp(n, func(n int) {
			dec := json.NewDecoder(bytes.NewReader(wire.Bytes()))
			var req live.Request
			for i := 0; i < n; i++ {
				req.Features = req.Features[:0]
				if e := dec.Decode(&req); e != nil {
					err = e
					return
				}
			}
		}))
		out := json.NewEncoder(io.Discard)
		now := time.Now().UnixNano()
		set("live.json_resp_encode_ns", nsPerOp(n, func(n int) {
			for i := 0; i < n; i++ {
				out.Encode(live.Response{ID: uint64(i), GenNs: now, RecvNs: now, StartNs: now, EndNs: now, Level: i & 7})
			}
		}))
	})
	probe("live", "backend_setlevel", func() {
		b := live.NewMockBackend(grid)
		set("live.backend_setlevel_ns", nsPerOp(scale(4_000_000), func(n int) {
			for i := 0; i < n; i++ {
				b.SetLevel(i&1, cpu.Level(i%grid.Levels()))
			}
		}))
	})
	return ps, err
}

// probePipeline is a synthetic policy.Pipeline of fixed depth over the
// calibrated model: every member generated at time zero, no head progress.
type probePipeline struct {
	model predict.Predictor
	feats [][]float64
}

func (p *probePipeline) Len() int            { return len(p.feats) }
func (p *probePipeline) Gen(int) policy.Time { return 0 }
func (p *probePipeline) Predict(lvl cpu.Level, i int) float64 {
	return p.model.Predict(lvl, p.feats[i])
}
func (p *probePipeline) HeadProgress() float64 { return 0 }
