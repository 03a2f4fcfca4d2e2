package main

import (
	"fmt"
	"log"
	"os"
	"slices"
	"strings"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/trace"
	"retail/internal/workload"
)

// simBaselines are the -manager names beside the four policies: managers
// only the simulator runs.
var simBaselines = []string{"adrenaline", "pegasus", "maxfreq"}

// bindSim is `retail sim`: a single measured simulation — one
// application, one power manager, one load point. It prints the run
// summary (power, latency percentiles, drops, QoS verdict) and is the
// quickest way to poke at the system.
//
//	retail sim -app xapian -manager retail -load 0.7
//	retail sim -app silo -manager gemini -rps 20000 -duration 30
//	retail sim -app xapian -trace run.json            # Perfetto-viewable spans
//	retail sim -app xapian -trace run.csv -trace-format csv
//	retail sim -app xapian -metrics                   # Prometheus text dump
func bindSim(f *cmdFlags) func() error {
	f.appFlag("xapian")
	f.sourceFlags()
	f.seedFlag(7)
	f.workersFlag(20)
	f.samplesFlag(1000)
	f.rpsFlag(0, "absolute rate, overrides -load")
	f.quickNNFlag()
	f.paramsFlag()
	f.reportFlag()
	var (
		mgrName    = f.String("manager", "retail", "power manager: retail, rubik, gemini, adrenaline, eetl, pegasus, maxfreq")
		load       = f.Float64("load", 0.7, "load as a fraction of calibrated max load")
		duration   = f.Float64("duration", 0, "measured seconds (0 = auto)")
		tracePath  = f.String("trace", "", "write a request trace to this file (span flight recorder)")
		traceFmt   = f.String("trace-format", "chrome", "trace format: chrome (Perfetto-viewable JSON) or csv")
		traceCap   = f.Int("trace-cap", 0, "flight-recorder ring capacity per class (0 = default 4096)")
		traceEvery = f.Int("trace-sample", 1, "keep 1 of every N ordinary spans (violations/drops/p99 always kept)")
		metrics    = f.Bool("metrics", false, "attach the telemetry registry and print a Prometheus text summary after the run")
	)
	f.check(func() error {
		managers := append(policy.Names(), simBaselines...)
		switch {
		case !slices.Contains(managers, *mgrName):
			return fmt.Errorf("unknown -manager %q (want one of %s)", *mgrName, strings.Join(managers, ", "))
		case f.rps == 0 && *load <= 0:
			return fmt.Errorf("-load must be positive when -rps is unset, got %g", *load)
		case *duration < 0:
			return fmt.Errorf("-duration must be non-negative, got %g", *duration)
		case *traceFmt != "chrome" && *traceFmt != "csv":
			return fmt.Errorf("-trace-format must be chrome or csv, got %q", *traceFmt)
		case *traceCap < 0:
			return fmt.Errorf("-trace-cap must be non-negative, got %d", *traceCap)
		case *traceEvery < 1:
			return fmt.Errorf("-trace-sample must be at least 1, got %d", *traceEvery)
		}
		return f.onlyWith(*tracePath != "", "-trace", "trace-cap", "trace-sample")
	})

	return func() error {
		app, src := f.src.App, f.src
		platform := core.DefaultPlatform().WithWorkers(f.workers)
		cal, err := core.Calibrate(app, platform, f.samples, f.seed)
		if err != nil {
			return err
		}
		rate := f.rps
		if rate <= 0 {
			rate = core.CalibrateMaxLoad(app, platform, f.seed) * *load
		}
		var m manager.Manager
		switch *mgrName {
		case "adrenaline":
			m = cal.NewAdrenaline()
		case "pegasus":
			m = cal.NewPegasus()
		case "maxfreq":
			m = cal.NewMaxFreq()
		default: // the four managed policies
			if m, err = cal.NewManagerParams(*mgrName, f.geminiNN(), f.params); err != nil {
				return err
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

		// Optional observers, registered through the core.Run instrument
		// hook; the ledger and the flight recorder also take the manager's
		// decisions from the server.
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
				s.Observe(flight)
			}
			if f.report != "" {
				led = obs.AttachLedger(s, app.QoS())
				// Reset in the same virtual instant core.Run resets energy, so
				// ledger counts and socket joules share the measurement epoch.
				e.At(warmup, "obs.ledger.reset", func(*sim.Engine) { led.Reset() })
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
			RPS: rate, Warmup: warmup, Duration: dur, Seed: f.seed,
			Replay: src.Replay, Instrument: instrument,
		}
		switch {
		case src.Replay != nil:
			runCfg.RPS = 0
		case src.Spec != nil:
			// Scale here rather than in core.Run so a recorded trace's header
			// carries the spec actually generated (rates included).
			runCfg.Spec, runCfg.RPS = src.Spec.ScaledTo(rate), 0
			if f.record != "" {
				runCfg.Record = workload.NewTrace(runCfg.Spec, f.seed)
			}
		}
		res, err := core.Run(runCfg)
		if err != nil {
			return err
		}
		if runCfg.Record != nil {
			sha, err := recordTrace(runCfg.Record, f.record)
			if err != nil {
				return err
			}
			fmt.Printf("recorded     %s (%d records, sha256 %s)\n", f.record, len(runCfg.Record.Records), sha)
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
			res.App, app.QoS(), res.Manager, res.RPS, dur, f.workers,
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
			if len(flight.FreqPoints()) == 0 {
				log.Printf("note: manager %q emits no decision attribution; trace will carry lifecycle spans only", m.Name())
			}
			write := flight.WriteChrome
			if *traceFmt == "csv" {
				write = flight.WriteCSV
			}
			if err := writeFile(*tracePath, write); err != nil {
				return err
			}
			st := flight.Stats()
			fmt.Printf("trace        %s (%s): %d spans kept of %d seen, %d violations, %d drops\n",
				*tracePath, *traceFmt, st.Kept, st.Total, st.Violations, st.Dropped)
			fmt.Print(flight.Audit().Render())
		}
		if reg != nil {
			fmt.Println("--- metrics ---")
			if err := reg.WriteText(os.Stdout); err != nil {
				return err
			}
		}
		if f.report == "" {
			return nil
		}
		end := warmup + dur
		ns := led.Summary(res.App, 0, srvRef.Socket.EnergyByLevel(end), srvRef.Socket.UncoreJoules(end))
		rep := obs.NewReport("sim", f.seed, obs.HashConfig("sim", res.App, res.Manager,
			f.workers, rate, float64(dur), f.samples))
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
		return writeReport(rep, f.report, "report       %s (v%d, config %s)\n")
	}
}
