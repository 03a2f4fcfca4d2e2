// retail-loadgen drives an open-loop load at a retail-live server and
// prints an HDR latency report. The generator never waits for responses
// before sending the next request, so server-side queueing shows up in
// the measured tail instead of silently throttling the offered rate
// (coordinated omission).
//
// Usage:
//
//	retail-loadgen -addr 127.0.0.1:7077 -app xapian -rps 200 -duration 10s
//	retail-loadgen -selfhost -rps 140000 -conns 12    # loopback saturation demo
//	retail-loadgen -selfhost -spec slo-mix -record run.trace   # cohort schedule, recorded
//	retail-loadgen -selfhost -replay run.trace                 # same wire schedule again
//
// -selfhost starts an in-process server with a no-op executor, so the
// runtime itself — transport and policy, not the (absent) work — is the
// measured path. Every send schedule is pre-drawn before the first dial:
// a Poisson stream at -rps by default, or the cohort spec's stream
// (workload.RecordTrace) with -spec, so -record and a later -replay
// offer byte-identical request sequences; latency is then also reported
// per SLO class.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"retail/internal/cpu"
	"retail/internal/live"
	"retail/internal/obs"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

func main() {
	log.SetFlags(0)
	var (
		addr       = flag.String("addr", "", "server address (omit with -selfhost)")
		appName    = flag.String("app", "xapian", "application model supplying the feature distribution")
		rps        = flag.Float64("rps", 1000, "aggregate offered request rate")
		conns      = flag.Int("conns", 8, "client connections (rate splits evenly)")
		duration   = flag.Duration("duration", 5*time.Second, "send window")
		drain      = flag.Duration("drain", 2*time.Second, "wait for in-flight responses after the window")
		seed       = flag.Int64("seed", 1, "generator seed")
		selfhost   = flag.Bool("selfhost", false, "start an in-process no-op server and load it over loopback")
		report     = flag.String("report", "", "file for the versioned obs run report")
		specName   = flag.String("spec", "", "cohort workload spec: a builtin name ("+strings.Join(workload.BuiltinSpecNames(), ", ")+") or a JSON file; pre-draws the wire schedule")
		recordPath = flag.String("record", "", "write the pre-drawn schedule to this v2 trace file (requires -spec)")
		replayPath = flag.String("replay", "", "send a recorded v2 trace's schedule instead of generating one (excludes -spec/-record)")
	)
	flag.Parse()

	// Resolve the -spec/-record/-replay flags against -app and draw the
	// schedule before any listener binds or connection dials, so a bad
	// invocation never touches the network.
	var appSet, rpsSet bool
	flag.Visit(func(f *flag.Flag) {
		appSet = appSet || f.Name == "app"
		rpsSet = rpsSet || f.Name == "rps"
	})
	src, err := workload.LoadSource(*appName, appSet, *specName, *recordPath, *replayPath)
	if err != nil {
		log.Print(err)
		flag.Usage()
		os.Exit(2)
	}
	app, trace := src.App, src.Replay
	if spec := src.Spec; spec != nil {
		if rpsSet {
			// An explicit -rps rescales the cohort mix to that aggregate;
			// otherwise the spec runs at its own rates.
			spec = spec.ScaledTo(*rps)
		}
		trace = workload.RecordTrace(spec, *seed, sim.Duration(duration.Seconds()))
		if len(trace.Records) == 0 {
			log.Fatalf("-spec %q produced no arrivals in %v", *specName, *duration)
		}
	}
	// Without -spec or -replay the schedule is a Poisson stream at -rps,
	// drawn here like the others, before anything binds or dials. The
	// report's config hash names what was asked for: the Poisson
	// parameters, or a pre-drawn schedule by its digest.
	hash := obs.HashConfig("loadgen", app.Name(), *rps, *conns, duration.String())
	var sha string
	if trace == nil {
		trace = live.PoissonTrace(app, *rps, *duration, *seed, nil)
	} else {
		if sha, err = trace.SHA(); err != nil {
			log.Fatal(err)
		}
		hash = obs.HashConfig("loadgen-spec", app.Name(), sha, *conns)
	}

	target := *addr
	if *selfhost {
		grid := cpu.DefaultGrid()
		srv, err := live.NewServer(live.ServerConfig{
			Addr:      "127.0.0.1:0",
			Workers:   runtime.NumCPU(),
			QoS:       app.QoS(),
			Predictor: flatPredictor(1e-6),
			Backend:   live.NewMockBackend(grid),
			Exec:      func(live.Request, cpu.Level) {},
			AppName:   app.Name(),
		})
		if err != nil {
			log.Fatal(err)
		}
		srv.Start()
		defer srv.Close()
		target = srv.Addr()
		log.Printf("selfhost server on %s (%d workers, no-op executor)", target, runtime.NumCPU())
	}
	if target == "" {
		log.Print("need -addr or -selfhost")
		flag.Usage()
		os.Exit(2)
	}

	if *recordPath != "" {
		trace.Header.Provenance = obs.CollectProvenance()
		if err := trace.WriteFile(*recordPath); err != nil {
			log.Fatal(err)
		}
		// The digest masks provenance, so stamping it left sha unchanged.
		log.Printf("recorded %s (%d records, sha256 %s)", *recordPath, len(trace.Records), sha)
	}

	log.Printf("open-loop %s: %d records via %d conns", app.Name(), len(trace.Records), *conns)
	res, err := live.RunLoad(live.LoadConfig{
		Addr: target, Trace: trace, Conns: *conns, DrainTimeout: *drain,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Report())

	if *report == "" {
		return
	}
	rep := obs.NewReport("loadgen", *seed, hash)
	rep.Loadgen = loadgenReport(res, app, target, *conns)
	if err := rep.WriteFile(*report); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("report      %s (v%d, config %s)\n", *report, rep.Version, rep.ConfigHash)
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
