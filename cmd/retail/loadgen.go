package main

import (
	"errors"
	"fmt"
	"log"
	"runtime"
	"time"

	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/obs"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// bindLoadgen is `retail loadgen`: drive an open-loop load at a live
// server and print an HDR latency report. The generator never waits for
// responses before sending the next request, so server-side queueing
// shows up in the measured tail instead of silently throttling the
// offered rate (coordinated omission).
//
//	retail loadgen -addr 127.0.0.1:7077 -app xapian -rps 200 -duration 10s
//	retail loadgen -selfhost -rps 140000 -conns 12    # loopback saturation demo
//	retail loadgen -selfhost -spec slo-mix -record run.trace   # cohort schedule, recorded
//	retail loadgen -selfhost -replay run.trace                 # same wire schedule again
//
// -selfhost starts an in-process server with a no-op executor, so the
// runtime itself — transport and policy, not the (absent) work — is the
// measured path. Every send schedule is pre-drawn before the first dial:
// a Poisson stream at -rps by default, or the cohort spec's stream
// (workload.RecordTrace) with -spec, so -record and a later -replay
// offer byte-identical request sequences; latency is then also reported
// per SLO class.
func bindLoadgen(f *cmdFlags) func() error {
	f.appFlag("xapian")
	f.sourceFlags()
	f.seedFlag(1)
	f.rpsFlag(1000, "the aggregate offered rate (with -spec, rescales the cohort mix)")
	f.reportFlag()
	var (
		addr     = f.String("addr", "", "server address (omit with -selfhost)")
		conns    = f.Int("conns", 8, "client connections (rate splits evenly)")
		duration = f.Duration("duration", 5*time.Second, "send window")
		drain    = f.Duration("drain", 2*time.Second, "wait for in-flight responses after the window")
		selfhost = f.Bool("selfhost", false, "start an in-process no-op server and load it over loopback")
	)
	f.check(func() error {
		if *addr == "" && !*selfhost {
			return errors.New("need -addr or -selfhost")
		}
		return nil
	})

	return func() error {
		log.SetFlags(0)
		// The schedule is drawn before any listener binds or connection
		// dials, so a bad invocation never touches the network.
		app, trace := f.src.App, f.src.Replay
		if spec := f.src.Spec; spec != nil {
			if f.set("rps") {
				// An explicit -rps rescales the cohort mix to that aggregate;
				// otherwise the spec runs at its own rates.
				spec = spec.ScaledTo(f.rps)
			}
			trace = workload.RecordTrace(spec, f.seed, sim.Duration(duration.Seconds()))
			if len(trace.Records) == 0 {
				return fmt.Errorf("-spec %q produced no arrivals in %v", f.spec, *duration)
			}
		}
		// Without -spec or -replay the schedule is a Poisson stream at
		// -rps, drawn here like the others. The report's config hash names
		// what was asked for: the Poisson parameters, or a pre-drawn
		// schedule by its digest.
		hash := obs.HashConfig("loadgen", app.Name(), f.rps, *conns, duration.String())
		if trace == nil {
			trace = live.PoissonTrace(app, f.rps, *duration, f.seed, nil)
		} else {
			sha, err := trace.SHA()
			if err != nil {
				return err
			}
			hash = obs.HashConfig("loadgen-spec", app.Name(), sha, *conns)
		}

		target := *addr
		if *selfhost {
			srv, err := live.NewServer(live.ServerConfig{
				Addr:      "127.0.0.1:0",
				Workers:   runtime.NumCPU(),
				QoS:       app.QoS(),
				Predictor: flatPredictor(1e-6),
				Backend:   live.NewMockBackend(cpu.DefaultGrid()),
				Exec:      func(live.Request, cpu.Level) {},
				AppName:   app.Name(),
			})
			if err != nil {
				return err
			}
			srv.Start()
			defer srv.Close()
			target = srv.Addr()
			log.Printf("selfhost server on %s (%d workers, no-op executor)", target, runtime.NumCPU())
		}

		if f.record != "" {
			sha, err := recordTrace(trace, f.record)
			if err != nil {
				return err
			}
			log.Printf("recorded %s (%d records, sha256 %s)", f.record, len(trace.Records), sha)
		}

		log.Printf("open-loop %s: %d records via %d conns", app.Name(), len(trace.Records), *conns)
		res, err := live.RunLoad(live.LoadConfig{
			Addr: target, Trace: trace, Conns: *conns, DrainTimeout: *drain,
		})
		if err != nil {
			return err
		}
		fmt.Println(res.Report())
		if f.report == "" {
			return nil
		}
		rep := obs.NewReport("loadgen", f.seed, hash)
		rep.Loadgen = loadgenReport(res, app, target, *conns)
		return writeReport(rep, f.report, "report      %s (v%d, config %s)\n")
	}
}

// loadgenReport is the run's obs payload: HDR quantiles overall and, when
// the schedule has a class table, each SLO class against its scaled QoS.
func loadgenReport(res *live.LoadResult, app workload.App, target string, conns int) *obs.LoadgenReport {
	sec := func(h *stats.HDR, q float64) float64 { return time.Duration(h.Quantile(q)).Seconds() }
	lg := &obs.LoadgenReport{
		App: app.Name(), Addr: target, Conns: conns,
		Duration:   res.Elapsed.Seconds(),
		Sent:       res.Sent,
		Completed:  res.Completed,
		Dropped:    res.Dropped,
		Unanswered: res.Unanswered,
		OfferedRPS: res.OfferedRPS,
		SentRPS:    res.SentRPS,
		ElapsedS:   res.Elapsed.Seconds(),
		LatencyS: obs.LatencyQuantiles{
			Min: time.Duration(res.Latency.Min()).Seconds(),
			P50: sec(&res.Latency, 0.50), P90: sec(&res.Latency, 0.90), P99: sec(&res.Latency, 0.99),
			P999: sec(&res.Latency, 0.999), P9999: sec(&res.Latency, 0.9999),
			Max: time.Duration(res.Latency.Max()).Seconds(),
		},
	}
	qos := app.QoS()
	for i := range res.Classes {
		c := &res.Classes[i]
		goal := c.Scale * float64(qos.Latency) // sim.Duration is seconds
		tail := sec(&c.Latency, qos.Percentile/100)
		lg.Classes = append(lg.Classes, obs.SLOClassLatency{
			Class: c.Class, QoSScale: c.Scale,
			Completed: c.Completed, Dropped: c.Dropped,
			P50: sec(&c.Latency, 0.50), P95: sec(&c.Latency, 0.95), P99: sec(&c.Latency, 0.99),
			TailAtQoS: tail, QoSTarget: goal,
			QoSMet: tail <= goal,
		})
	}
	return lg
}

// flatPredictor is the selfhost stand-in for a trained model: a constant
// tiny service time, so decisions always land on the lowest level and
// the DVFS write coalescer elides every backend call after the first.
type flatPredictor float64

func (p flatPredictor) Predict(lvl cpu.Level, f []float64) float64 { return float64(p) }
