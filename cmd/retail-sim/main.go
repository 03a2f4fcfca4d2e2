// Command retail-sim runs a single measured simulation: one application,
// one power manager, one load point. It prints the run summary (power,
// latency percentiles, drops, QoS verdict) and is the quickest way to poke
// at the system.
//
// Usage:
//
//	retail-sim -app xapian -manager retail -load 0.7
//	retail-sim -app silo -manager gemini -rps 20000 -duration 30
//	retail-sim -app xapian -trace run.json            # Perfetto-viewable spans
//	retail-sim -app xapian -trace run.csv -trace-format csv
//	retail-sim -app xapian -metrics                   # Prometheus text dump
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"retail/internal/core"
	"retail/internal/experiments"
	"retail/internal/manager"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/trace"
	"retail/internal/workload"
)

func main() {
	var (
		appName    = flag.String("app", "xapian", "application: "+strings.Join(experiments.AppNames(), ", "))
		mgrName    = flag.String("manager", "retail", "power manager: retail, rubik, gemini, adrenaline, eetl, pegasus, maxfreq")
		load       = flag.Float64("load", 0.7, "load as a fraction of calibrated max load")
		rps        = flag.Float64("rps", 0, "absolute request rate (overrides -load)")
		workers    = flag.Int("workers", 20, "worker cores")
		duration   = flag.Float64("duration", 0, "measured seconds (0 = auto)")
		seed       = flag.Int64("seed", 7, "simulation seed")
		samples    = flag.Int("samples", 1000, "calibration samples per frequency level")
		quickNN    = flag.Bool("quick-nn", true, "use a small NN for gemini instead of the 5×128")
		paramsPath = flag.String("params", "", "serializable policy params JSON (empty = historical defaults)")

		specName   = flag.String("spec", "", "cohort workload spec: a builtin name ("+strings.Join(workload.BuiltinSpecNames(), ", ")+") or a JSON file")
		recordPath = flag.String("record", "", "record the generated request stream to this v2 trace file (requires -spec)")
		replayPath = flag.String("replay", "", "replay a recorded v2 trace instead of generating load (excludes -spec/-record)")

		tracePath  = flag.String("trace", "", "write a request trace to this file (span flight recorder)")
		traceFmt   = flag.String("trace-format", "chrome", "trace format: chrome (Perfetto-viewable JSON) or csv")
		traceCap   = flag.Int("trace-cap", 0, "flight-recorder ring capacity per class (0 = default 4096)")
		traceEvery = flag.Int("trace-sample", 1, "keep 1 of every N ordinary spans (violations/drops/p99 always kept)")
		metrics    = flag.Bool("metrics", false, "attach the telemetry registry and print a Prometheus text summary after the run")
		reportPath = flag.String("report", "", "file for the versioned obs run report (attaches the energy×QoS attribution ledger)")
	)
	flag.Parse()

	appSet := false
	flag.Visit(func(f *flag.Flag) { appSet = appSet || f.Name == "app" })
	// A spec or replay trace names its own app, which must agree with an
	// explicit -app.
	src, err := workload.LoadSource(*appName, appSet, *specName, *recordPath, *replayPath)
	if err == nil {
		err = validateFlags(*load, *rps, *workers, *duration, *samples,
			*tracePath, *traceFmt, *traceCap, *traceEvery)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-sim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	app := src.App
	// Load and validate the policy params before any calibration work so a
	// malformed file fails fast; the zero value keeps historical behavior.
	params, err := policy.LoadParams(*paramsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-sim: %v\n", err)
		os.Exit(2)
	}
	platform := core.DefaultPlatform().WithWorkers(*workers)
	cal, err := core.Calibrate(app, platform, *samples, *seed)
	if err != nil {
		log.Fatal(err)
	}
	rate := *rps
	if rate <= 0 {
		rate = core.CalibrateMaxLoad(app, platform, *seed) * *load
	}
	var m manager.Manager
	switch *mgrName {
	case "adrenaline":
		m = cal.NewAdrenaline()
	case "pegasus":
		m = cal.NewPegasus()
	case "maxfreq":
		m = cal.NewMaxFreq()
	default: // the four managed policies; NewManagerParams rejects other names
		var cfg *nn.Config
		if *quickNN {
			c := nn.TunedConfig(1, 2, 32, 30, 32)
			cfg = &c
		}
		m, err = cal.NewManagerParams(*mgrName, cfg, params)
		if err != nil {
			log.Fatal(err)
		}
	}

	dur := sim.Duration(*duration)
	if dur <= 0 {
		dur = core.RecommendedDuration(app, rate)
	}
	warmup := dur / 5
	if src.Replay != nil && *duration <= 0 {
		warmup, dur = src.Replay.Window()
	}

	// Optional observers, installed through the core.Run instrument hook so
	// they wrap the manager's hooks chain after Attach.
	var (
		flight *trace.FlightRecorder
		reg    *telemetry.Registry
		led    *obs.NodeLedger
		srvRef *server.Server
	)
	if *tracePath != "" {
		flight = trace.NewFlightRecorder(trace.FlightRecorderConfig{
			QoS: app.QoS(), Capacity: *traceCap, SampleEvery: *traceEvery,
		})
	}
	if *metrics {
		reg = telemetry.NewRegistry()
	}
	instrument := func(e *sim.Engine, s *server.Server) {
		srvRef = s
		if flight != nil {
			flight.Attach(s)
		}
		if *reportPath != "" {
			led = obs.AttachLedger(s, app.QoS())
			// Reset in the same virtual instant core.Run resets energy, so
			// ledger counts and socket joules share the measurement epoch.
			lr := led
			e.At(warmup, "obs.ledger.reset", func(*sim.Engine) { lr.Reset() })
		}
		var fs, ls server.DecisionSink
		if flight != nil {
			fs = flight
		}
		if led != nil {
			ls = led
		}
		if sink := obs.TeeDecisionSink(fs, ls); sink != nil {
			if ds, ok := m.(interface {
				SetDecisionSink(server.DecisionSink)
			}); ok {
				ds.SetDecisionSink(sink)
			} else if flight != nil {
				log.Printf("note: manager %q emits no decision attribution; trace will carry lifecycle spans only", m.Name())
			}
		}
		if reg != nil {
			server.AttachTelemetry(s, reg, app.Name(), app.QoS())
			if rt, ok := m.(*manager.ReTail); ok {
				rt.Instrument(reg, app.Name())
			}
		}
	}
	runCfg := core.RunConfig{
		App: app, Platform: platform, Manager: m,
		RPS: rate, Warmup: warmup, Duration: dur, Seed: *seed,
		Replay: src.Replay, Instrument: instrument,
	}
	var recTrace *workload.Trace
	switch {
	case src.Replay != nil:
		runCfg.RPS = 0
	case src.Spec != nil:
		// Scale here rather than in core.Run so a recorded trace's header
		// carries the spec actually generated (rates included).
		runCfg.Spec, runCfg.RPS = src.Spec.ScaledTo(rate), 0
		if *recordPath != "" {
			recTrace = workload.NewTrace(runCfg.Spec, *seed)
			runCfg.Record = recTrace
		}
	}
	res, err := core.Run(runCfg)
	if err != nil {
		log.Fatal(err)
	}
	if recTrace != nil {
		recTrace.Header.Provenance = obs.CollectProvenance()
		if err := recTrace.WriteFile(*recordPath); err != nil {
			log.Fatal(err)
		}
		sha, err := recTrace.SHA()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("recorded     %s (%d records, sha256 %s)\n", *recordPath, len(recTrace.Records), sha)
	}

	verdict := "MET"
	if !res.QoSMet {
		verdict = "VIOLATED"
	}
	fmt.Printf(`app          %s  (QoS %s)
manager      %s
load         %.0f RPS over %v (%d workers)
completed    %d   dropped %d (%.2f%%)
power        %.2f W avg   (%.1f J)
latency      p50 %v   p95 %v   p99 %v   mean %v
QoS          %s (p%g = %v vs target %v)
transitions  %d frequency changes
`,
		res.App, app.QoS(), res.Manager, res.RPS, dur, *workers,
		res.Completed, res.Dropped, res.DropRate()*100,
		res.AvgPowerW, res.EnergyJ,
		sim.Time(res.P50), sim.Time(res.P95), sim.Time(res.P99), sim.Time(res.MeanLatency),
		verdict, app.QoS().Percentile, sim.Time(res.TailAtQoSPct), app.QoS().Latency,
		res.Transitions)
	for _, cr := range res.Classes {
		met := "MET"
		if !cr.QoSMet {
			met = "VIOLATED"
		}
		fmt.Printf("class        %-12s scale %.2f  completed %d  dropped %d  p50 %v  p99 %v  tail %v vs %v  %s\n",
			cr.Class, cr.QoSScale, cr.Completed, cr.Dropped,
			sim.Time(cr.P50), sim.Time(cr.P99), sim.Time(cr.TailAtQoSPct), sim.Time(cr.QoSTarget), met)
	}

	if flight != nil {
		if err := writeTrace(flight, *tracePath, *traceFmt); err != nil {
			log.Fatal(err)
		}
		st := flight.Stats()
		fmt.Printf("trace        %s (%s): %d spans kept of %d seen, %d violations, %d drops\n",
			*tracePath, *traceFmt, st.Kept, st.Total, st.Violations, st.Dropped)
		fmt.Print(flight.Audit().Render())
	}
	if reg != nil {
		fmt.Println("--- metrics ---")
		if err := reg.WriteText(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}
	if *reportPath != "" {
		end := warmup + dur
		ns := led.Summary(res.App, 0, srvRef.Socket.EnergyByLevel(end), srvRef.Socket.UncoreJoules(end))
		rep := obs.NewReport("sim", *seed, obs.HashConfig("sim", res.App, res.Manager,
			*workers, rate, float64(dur), *samples))
		rep.Sim = &obs.SimReport{
			App: res.App, Manager: res.Manager,
			RPS: res.RPS, Duration: float64(dur),
			Completed: res.Completed, Dropped: res.Dropped,
			Violations: int(ns.Violations()), QoSMet: res.QoSMet,
			MeanLatency: res.MeanLatency,
			P50:         res.P50, P95: res.P95, P99: res.P99,
			TailAtQoS: res.TailAtQoSPct,
			EnergyJ:   res.EnergyJ, AvgPowerW: res.AvgPowerW,
			Ledger: []obs.NodeSummary{ns},
		}
		for _, cr := range res.Classes {
			rep.Sim.Classes = append(rep.Sim.Classes, obs.SLOClassLatency{
				Class: cr.Class, QoSScale: cr.QoSScale,
				Completed: cr.Completed, Dropped: cr.Dropped,
				P50: cr.P50, P95: cr.P95, P99: cr.P99,
				TailAtQoS: cr.TailAtQoSPct, QoSTarget: cr.QoSTarget,
				QoSMet: cr.QoSMet,
			})
		}
		if err := rep.WriteFile(*reportPath); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("report       %s (v%d, config %s)\n", *reportPath, rep.Version, rep.ConfigHash)
	}
}

// writeTrace exports the flight recorder in the requested format.
func writeTrace(fr *trace.FlightRecorder, path, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	switch format {
	case "chrome":
		err = fr.WriteChrome(f)
	case "csv":
		err = fr.WriteCSV(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// validateFlags checks flag combinations up front so misconfiguration
// produces a usable error instead of a mid-run failure, mirroring
// retail-live's validateFlags.
func validateFlags(load, rps float64, workers int, duration float64, samples int, tracePath, traceFmt string, traceCap, traceEvery int) error {
	if rps < 0 {
		return fmt.Errorf("-rps must be non-negative, got %g", rps)
	}
	if rps == 0 && load <= 0 {
		return fmt.Errorf("-load must be positive when -rps is unset, got %g", load)
	}
	if workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if duration < 0 {
		return fmt.Errorf("-duration must be non-negative, got %g", duration)
	}
	if samples < 1 {
		return fmt.Errorf("-samples must be at least 1, got %d", samples)
	}
	if traceFmt != "chrome" && traceFmt != "csv" {
		return fmt.Errorf("-trace-format must be chrome or csv, got %q", traceFmt)
	}
	if tracePath == "" {
		if traceCap != 0 {
			return fmt.Errorf("-trace-cap is only meaningful with -trace")
		}
		if traceEvery != 1 {
			return fmt.Errorf("-trace-sample is only meaningful with -trace")
		}
		return nil
	}
	if traceCap < 0 {
		return fmt.Errorf("-trace-cap must be non-negative, got %d", traceCap)
	}
	if traceEvery < 1 {
		return fmt.Errorf("-trace-sample must be at least 1, got %d", traceEvery)
	}
	return nil
}
