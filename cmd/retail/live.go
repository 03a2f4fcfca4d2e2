package main

import (
	"fmt"
	"log"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"retail/internal/core"
	"retail/internal/fault"
	"retail/internal/live"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/telemetry"
)

// bindLive is `retail live`, the wall-clock ReTail runtime: a real TCP
// server with per-worker queues and Algorithm 1 frequency decisions,
// loaded by an in-process open-loop client. By default the DVFS backend
// is mocked (the demo executor scales its synthetic work to the decided
// frequency); with -sysfs it writes the Linux cpufreq userspace governor
// files, exactly as the paper's testbed does.
//
// The frequency policy is selectable: -policy runs ReTail (default) or
// one of the paper's baselines — rubik (offline distribution tail),
// gemini (head-sized NN posture with a two-step boost) or eetl
// (slow-start with a long-request threshold) — over the same wall-clock
// runtime, because all four are adapters of the shared decision core in
// internal/policy.
//
//	retail live -app xapian -rps 150 -duration 5s
//	retail live -app xapian -policy rubik          # baseline on the live runtime
//	retail live -app xapian -metrics-addr :9090   # Prometheus /metrics + /healthz
//	sudo retail live -app xapian -sysfs -cores 2,3  # real DVFS (Linux)
func bindLive(f *cmdFlags) func() error {
	f.appFlag("xapian")
	f.workersFlag(2)
	f.rpsFlag(150, "the built-in client's rate (0 = serve-only, for an external generator such as retail loadgen)")
	f.paramsFlag()
	var (
		listen      = f.String("listen", "127.0.0.1:0", "server listen address")
		duration    = f.Duration("duration", 5*time.Second, "load (or serve-only) duration")
		scale       = f.Float64("scale", 0.2, "time compression for the demo executor")
		sysfs       = f.Bool("sysfs", false, "drive real cpufreq files instead of the mock")
		sysfsDir    = f.String("sysfs-root", "/sys/devices/system/cpu", "cpufreq root (with -sysfs)")
		coresArg    = f.String("cores", "", "comma-separated physical cores for -sysfs")
		metricsAddr = f.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (e.g. :9090)")
		faultPlan   = f.String("fault-plan", "", "replay a named fault plan against the runtime (see retail chaos -list)")
		policyName  = f.String("policy", "retail", "frequency policy: retail, rubik, gemini or eetl")

		cores []int
		plan  *fault.Plan
	)
	f.check(func() (err error) {
		switch {
		case *policyName != "" && !slices.Contains(policy.Names(), *policyName):
			return fmt.Errorf("unknown -policy %q (want one of %v)", *policyName, policy.Names())
		case *duration <= 0:
			return fmt.Errorf("-duration must be positive, got %v", *duration)
		case *scale <= 0:
			return fmt.Errorf("-scale must be positive, got %g", *scale)
		}
		if err = f.onlyWith(*sysfs, "-sysfs (the mock backend has no physical cores)", "cores", "sysfs-root"); err == nil && *sysfs {
			cores, err = parseCores(*coresArg, f.workers)
		}
		if err == nil && *faultPlan != "" {
			plan, err = fault.PlanByName(*faultPlan)
		}
		return err
	})

	return func() error {
		app := f.src.App
		platform := core.DefaultPlatform().WithWorkers(f.workers)
		log.Printf("calibrating %s …", app.Name())
		cal, err := core.Calibrate(app, platform, 1000, 1)
		if err != nil {
			return err
		}

		grid := platform.Grid
		mock := live.NewMockBackend(grid)
		var backend live.Backend = mock
		if *sysfs {
			b, err := live.NewSysfsBackend(grid, *sysfsDir, cores)
			if err != nil {
				return err
			}
			backend = b
			*scale = 1 // real hardware runs in real time
		}

		// Optional chaos: wrap the backend with the fault injector and
		// enable the degradation policy so the run demonstrates the
		// recovery story.
		var inj *fault.Injector
		var degrade live.DegradePolicy
		if plan != nil {
			wall := fault.WallClock()
			s := *scale
			inj = fault.New(1, plan).WithClock(func() float64 { return wall() / s })
			backend = live.NewFaultyBackend(backend, inj)
			degrade = live.DefaultChaosPolicy()
			log.Printf("fault plan %s", plan)
		}

		var reg *telemetry.Registry
		if *metricsAddr != "" {
			reg = telemetry.NewRegistry()
		}
		srv, err := live.NewServer(live.ServerConfig{
			Addr:         *listen,
			Workers:      f.workers,
			QoS:          app.QoS(),
			Predictor:    live.ScaledPredictor{Inner: cal.Model, Scale: *scale},
			Backend:      backend,
			Exec:         live.DemoExecutor(app, mock, *scale),
			Metrics:      reg,
			AppName:      app.Name(),
			Faults:       inj,
			Degrade:      degrade,
			Policy:       *policyName,
			Params:       f.params,
			ProfileAtMax: scaleProfile(cal.ProfileAtMax, *scale),
		})
		if err != nil {
			return err
		}
		// Establish the documented initial condition — every worker core at
		// max frequency — in one batched backend pass (a BatchBackend
		// coalesces it; others fall back to per-core writes).
		initial := make([]live.LevelWrite, f.workers)
		for i := range initial {
			initial[i] = live.LevelWrite{Core: i, Level: grid.MaxLevel()}
		}
		if err := live.ApplyLevels(backend, initial); err != nil {
			log.Printf("initial DVFS pass: %v (continuing; runtime reconciles per write)", err)
		}

		srv.Start()
		defer srv.Close()
		if reg != nil {
			// Fold Go runtime health (goroutines, heap, GC pause and
			// scheduler latency tails) into the same registry the request
			// metrics live in, so one scrape separates runtime-induced tail
			// spikes from policy.
			sampler := obs.StartRuntimeSampler(reg, time.Second)
			defer sampler.Stop()
			// One port hosts both the Prometheus exposition and the
			// runtime's introspection endpoints: /debug/trace
			// (decision-attributed flight ring), /debug/fleet (per-app
			// telemetry roll-up) and /debug/pprof/* (live CPU/heap profiles,
			// with retail=decide / retail=ingress labels splitting the two
			// hot paths).
			mux := http.NewServeMux()
			mux.Handle("/debug/", srv.DebugHandler())
			mux.Handle("/", reg.Handler())
			ms, err := telemetry.ServeHandler(*metricsAddr, mux)
			if err != nil {
				return err
			}
			defer ms.Close()
			log.Printf("metrics on http://%s/metrics (health: /healthz, trace: /debug/trace, fleet: /debug/fleet, profiles: /debug/pprof/)", ms.Addr())
		}
		var res *live.LoadResult
		if f.rps == 0 {
			// Serve-only: no built-in client — an external generator (e.g.
			// retail loadgen) drives the runtime over the wire.
			log.Printf("serving on %s (policy %s) for %v — drive it with: retail loadgen -addr %s -app %s",
				srv.Addr(), srv.Policy(), *duration, srv.Addr(), app.Name())
			time.Sleep(*duration)
		} else {
			log.Printf("serving on %s (policy %s); loading at %.0f RPS for %v", srv.Addr(), srv.Policy(), f.rps, *duration)
			// The plan's windows are on the canonical clock; the schedule is
			// drawn in wall seconds.
			res, err = live.RunLoad(live.LoadConfig{
				Addr:         srv.Addr(),
				Trace:        live.PoissonTrace(app, f.rps, *duration, 7, plan.Scaled(*scale)),
				MaxRetries:   3,
				RetryBackoff: time.Duration(float64(2*time.Millisecond) * *scale),
			})
			if err != nil {
				return err
			}
		}
		fmt.Printf("policy      %s\n", srv.Policy())
		if res != nil {
			fmt.Printf("sent        %d\ncompleted   %d\nlatency     p50 %v   p95 %v   p99 %v\n",
				res.Sent, res.Completed, res.Quantile(0.50), res.Quantile(0.95), res.Quantile(0.99))
		}
		fmt.Printf(`decisions   %d frequency decisions, %d DVFS writes, %d coalesced
qos'        %v (target %v × scale %.2f)
`, srv.Decisions(), mock.Writes(), srv.DegradeCounts().DVFSCoalesced, srv.QoSPrime(),
			time.Duration(float64(app.QoS().Latency)*1e9), *scale)
		if inj != nil && res != nil {
			deg := srv.DegradeCounts()
			fmt.Printf(`chaos       injected %d faults; client retries %d, dropped %d
recovery    dvfs errors %d  retries %d  fallbacks %d  shed %d  deadline drops %d  pinned %d
`, inj.FiredTotal(), res.Retries, res.Dropped,
				deg.DVFSWriteErrors, deg.DVFSRetries, deg.DVFSFallbacks,
				deg.Shed, deg.DeadlineDrops, srv.PinnedWorkers())
		}
		return nil
	}
}

// parseCores parses -cores, the physical cores whose cpufreq files -sysfs
// drives: one per worker.
func parseCores(arg string, workers int) ([]int, error) {
	arg = strings.TrimSpace(arg)
	if arg == "" {
		return nil, fmt.Errorf("-sysfs requires -cores: list the physical cores whose cpufreq files to drive, e.g. -cores 2,3")
	}
	var cores []int
	for _, c := range strings.Split(arg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(c))
		if err != nil {
			return nil, fmt.Errorf("bad -cores entry %q: need comma-separated integers, e.g. -cores 2,3", c)
		}
		if n < 0 {
			return nil, fmt.Errorf("bad -cores entry %d: core indices are non-negative", n)
		}
		cores = append(cores, n)
	}
	if len(cores) < workers {
		return nil, fmt.Errorf("-cores lists %d cores but -workers is %d: each worker needs its own core", len(cores), workers)
	}
	return cores, nil
}

// scaleProfile compresses the calibrated max-frequency service-time
// profile to the demo executor's timebase, mirroring what the scaled
// predictor does: the profile-driven baselines (Rubik's distribution
// tail, EETL's long-request threshold) must see service times in the
// same units the executor actually produces.
func scaleProfile(profile []float64, s float64) []float64 {
	out := make([]float64, len(profile))
	for i, v := range profile {
		out[i] = v * s
	}
	return out
}
