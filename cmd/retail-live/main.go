// Command retail-live runs the wall-clock ReTail runtime: a real TCP
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
//	retail-live -app xapian -rps 150 -duration 5s
//	retail-live -app xapian -policy rubik          # baseline on the live runtime
//	retail-live -app xapian -metrics-addr :9090   # Prometheus /metrics + /healthz
//	sudo retail-live -app xapian -sysfs -cores 2,3  # real DVFS (Linux)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"retail/internal/core"
	"retail/internal/fault"
	"retail/internal/live"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

func main() {
	var (
		appName     = flag.String("app", "xapian", "application model")
		rps         = flag.Float64("rps", 150, "built-in client request rate (0 = serve-only, for an external generator such as retail-loadgen)")
		listen      = flag.String("listen", "127.0.0.1:0", "server listen address")
		duration    = flag.Duration("duration", 5*time.Second, "load (or serve-only) duration")
		workers     = flag.Int("workers", 2, "worker goroutines")
		scale       = flag.Float64("scale", 0.2, "time compression for the demo executor")
		sysfs       = flag.Bool("sysfs", false, "drive real cpufreq files instead of the mock")
		sysfsDir    = flag.String("sysfs-root", "/sys/devices/system/cpu", "cpufreq root")
		coresArg    = flag.String("cores", "", "comma-separated physical cores for -sysfs")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus /metrics and /healthz on this address (e.g. :9090)")
		faultPlan   = flag.String("fault-plan", "", "replay a named fault plan against the runtime (see retail-chaos -list)")
		policyName  = flag.String("policy", "retail", "frequency policy: retail, rubik, gemini or eetl")
		paramsPath  = flag.String("params", "", "serializable policy params JSON (empty = historical defaults)")
	)
	flag.Parse()

	app := workload.ByName(*appName)
	cores, err := validateFlags(app, *appName, *rps, *duration, *workers, *scale, *sysfs, *coresArg, *policyName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-live: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}
	params, err := policy.LoadParams(*paramsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "retail-live: %v\n", err)
		os.Exit(2)
	}

	platform := core.DefaultPlatform().WithWorkers(*workers)
	log.Printf("calibrating %s …", app.Name())
	cal, err := core.Calibrate(app, platform, 1000, 1)
	if err != nil {
		log.Fatal(err)
	}

	grid := platform.Grid
	mock := live.NewMockBackend(grid)
	var backend live.Backend = mock
	if *sysfs {
		b, err := live.NewSysfsBackend(grid, *sysfsDir, cores)
		if err != nil {
			log.Fatal(err)
		}
		backend = b
		*scale = 1 // real hardware runs in real time
	}

	// Optional chaos: wrap the backend with the fault injector and enable
	// the degradation policy so the run demonstrates the recovery story.
	var inj *fault.Injector
	var plan *fault.Plan
	var degrade live.DegradePolicy
	if *faultPlan != "" {
		plan, err = fault.PlanByName(*faultPlan)
		if err != nil {
			log.Fatal(err)
		}
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
		Workers:      *workers,
		QoS:          app.QoS(),
		Predictor:    live.ScaledPredictor{Inner: cal.Model, Scale: *scale},
		Backend:      backend,
		Exec:         live.DemoExecutor(app, mock, *scale),
		Metrics:      reg,
		AppName:      app.Name(),
		Faults:       inj,
		Degrade:      degrade,
		Policy:       *policyName,
		Params:       params,
		ProfileAtMax: scaleProfile(cal.ProfileAtMax, *scale),
	})
	if err != nil {
		log.Fatal(err)
	}
	// Establish the documented initial condition — every worker core at
	// max frequency — in one batched backend pass (a BatchBackend
	// coalesces it; others fall back to per-core writes).
	initial := make([]live.LevelWrite, *workers)
	for i := range initial {
		initial[i] = live.LevelWrite{Core: i, Level: grid.MaxLevel()}
	}
	if err := live.ApplyLevels(backend, initial); err != nil {
		log.Printf("initial DVFS pass: %v (continuing; runtime reconciles per write)", err)
	}

	srv.Start()
	defer srv.Close()
	if reg != nil {
		// Fold Go runtime health (goroutines, heap, GC pause and scheduler
		// latency tails) into the same registry the request metrics live in,
		// so one scrape separates runtime-induced tail spikes from policy.
		sampler := obs.StartRuntimeSampler(reg, time.Second)
		defer sampler.Stop()
		// One port hosts both the Prometheus exposition and the runtime's
		// introspection endpoints: /debug/trace (decision-attributed flight
		// ring), /debug/fleet (per-app telemetry roll-up) and /debug/pprof/*
		// (live CPU/heap profiles, with retail=decide / retail=ingress labels
		// splitting the two hot paths).
		mux := http.NewServeMux()
		mux.Handle("/debug/", srv.DebugHandler())
		mux.Handle("/", reg.Handler())
		ms, err := telemetry.ServeHandler(*metricsAddr, mux)
		if err != nil {
			log.Fatal(err)
		}
		defer ms.Close()
		log.Printf("metrics on http://%s/metrics (health: /healthz, trace: /debug/trace, fleet: /debug/fleet, profiles: /debug/pprof/)", ms.Addr())
	}
	var res *live.LoadResult
	if *rps == 0 {
		// Serve-only: no built-in client — an external generator (e.g.
		// retail-loadgen) drives the runtime over the wire.
		log.Printf("serving on %s (policy %s) for %v — drive it with: retail-loadgen -addr %s -app %s",
			srv.Addr(), srv.Policy(), *duration, srv.Addr(), app.Name())
		time.Sleep(*duration)
	} else {
		log.Printf("serving on %s (policy %s); loading at %.0f RPS for %v", srv.Addr(), srv.Policy(), *rps, *duration)
		// The plan's windows are on the canonical clock; the schedule is
		// drawn in wall seconds.
		res, err = live.RunLoad(live.LoadConfig{
			Addr:         srv.Addr(),
			Trace:        live.PoissonTrace(app, *rps, *duration, 7, plan.Scaled(*scale)),
			MaxRetries:   3,
			RetryBackoff: time.Duration(float64(2*time.Millisecond) * *scale),
		})
		if err != nil {
			log.Fatal(err)
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
}

// validateFlags checks flag combinations up front so misconfiguration
// produces a usable error instead of a mid-run failure (previously
// -sysfs without -cores fell through to an Atoi failure on an empty
// string). It returns the parsed core list for -sysfs.
func validateFlags(app workload.App, appName string, rps float64, duration time.Duration, workers int, scale float64, sysfs bool, coresArg, policy string) ([]int, error) {
	if app == nil {
		return nil, fmt.Errorf("unknown -app %q (try xapian, moses, …)", appName)
	}
	switch policy {
	case "", "retail", "rubik", "gemini", "eetl":
	default:
		return nil, fmt.Errorf("unknown -policy %q (want retail, rubik, gemini or eetl)", policy)
	}
	if rps < 0 {
		return nil, fmt.Errorf("-rps must be non-negative (0 = serve-only), got %g", rps)
	}
	if duration <= 0 {
		return nil, fmt.Errorf("-duration must be positive, got %v", duration)
	}
	if workers < 1 {
		return nil, fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("-scale must be positive, got %g", scale)
	}
	coresArg = strings.TrimSpace(coresArg)
	if !sysfs {
		if coresArg != "" {
			return nil, fmt.Errorf("-cores is only meaningful with -sysfs (the mock backend has no physical cores)")
		}
		return nil, nil
	}
	if coresArg == "" {
		return nil, fmt.Errorf("-sysfs requires -cores: list the physical cores whose cpufreq files to drive, e.g. -cores 2,3")
	}
	var cores []int
	for _, c := range strings.Split(coresArg, ",") {
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
