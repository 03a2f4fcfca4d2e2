package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/fault"
	"retail/internal/live"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// ---------------------------------------------------------------------------
// Live chaos — named fault plans replayed against the wall-clock runtime.
//
// This is the other half of the chaos story: the simulator (ChaosAll)
// covers the model-level sites deterministically, while this runner
// exercises the sites that only exist against real time and a real (or
// mocked) DVFS backend — write failures with retry/fallback, executor
// stalls against deadline timeouts, and overload bursts against admission
// control plus client retry. Wall-clock numbers are not golden-able; the
// health properties are: the server ends consistent with its backend, the
// degradation counters show the recovery work, and QoS′ stays inside the
// monitor's clamp band.

// LiveChaosConfig drives one wall-clock chaos replay. The zero value of
// every field selects a sensible default, so tests can set only Plan.
type LiveChaosConfig struct {
	// Plan is the fault plan to replay (required; timelines are canonical
	// 10-second seconds — TimeScale compresses them onto the wall clock).
	Plan *fault.Plan
	// App is the workload model (default moses).
	App workload.App
	// Workers is the worker/core count (default 2).
	Workers int
	// RPS is the wall-clock arrival rate (default 60: busy but under the
	// latency wall, so shedding concentrates in the injected windows).
	RPS float64
	// Seconds is the scenario length on the canonical clock (default 10).
	Seconds float64
	// TimeScale compresses canonical seconds to wall seconds (default 0.2:
	// the 10-second plan replays in 2 s).
	TimeScale float64
	// SamplesPerLevel sizes the calibration (default 300 — enough for a
	// usable linear model, cheap enough for CI).
	SamplesPerLevel int
	// Seed drives calibration, injection and client pacing.
	Seed int64
	// Policy is the degradation policy (zero value → DefaultChaosPolicy).
	Policy live.DegradePolicy
	// Params is the serializable policy parameterization for the server's
	// decider and degradation budgets (zero value = historical constants).
	Params policy.Params
	// Registry, when non-nil, receives the runtime's telemetry plus the
	// injector's retail_faults_injected_total counters.
	Registry *telemetry.Registry
}

// LiveChaosReport aggregates one replay's client view, the server's
// recovery work, and the post-run health checks.
type LiveChaosReport struct {
	Plan    string
	Workers int

	// LoadResult is the retrying client's view of the run.
	*live.LoadResult

	Counts        live.DegradeCounts
	PinnedWorkers int
	Decisions     uint64
	QoS           time.Duration
	QoSPrime      time.Duration

	// Injected counts per fault site (index = fault.Site).
	Injected [fault.NumSites]uint64

	// GridConsistent is true when, after shutdown, every worker whose
	// applied level the server claims to know matches the backend's
	// recorded hardware level — the runtime never carries a frequency the
	// hardware does not hold.
	GridConsistent bool
}

// RunLiveChaos replays cfg.Plan against a live server on a mock DVFS
// backend wrapped with the fault injector, drives it with the retrying
// client, and returns the degradation report.
func RunLiveChaos(cfg LiveChaosConfig) (*LiveChaosReport, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("chaos: LiveChaosConfig needs a Plan")
	}
	if cfg.App == nil {
		cfg.App = workload.ByName("moses")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RPS <= 0 {
		cfg.RPS = 60
	}
	if cfg.Seconds <= 0 {
		cfg.Seconds = 10
	}
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 0.2
	}
	if cfg.SamplesPerLevel <= 0 {
		cfg.SamplesPerLevel = 300
	}
	if cfg.Policy == (live.DegradePolicy{}) {
		cfg.Policy = live.DefaultChaosPolicy()
	}
	app := cfg.App
	platform := core.DefaultPlatform().WithWorkers(cfg.Workers)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}

	// The whole plan is compressed onto the wall clock: windows, drift
	// steps and duration magnitudes (stalls, spikes) all shrink by
	// TimeScale, matching the compressed QoS target below. The injector
	// and the client's burst then run on plain wall seconds.
	splan := cfg.Plan.Scaled(cfg.TimeScale)
	wall := fault.WallClock()
	inj := fault.New(cfg.Seed, splan).WithClock(wall)
	inj.Instrument(cfg.Registry, app.Name())

	grid := platform.Grid
	mock := live.NewMockBackend(grid)
	backend := live.NewFaultyBackend(mock, inj)

	// Time-compress the whole contract: service times (demo executor),
	// predictions and the QoS target all shrink by TimeScale, so the
	// shedding and deadline arithmetic behaves as at full scale.
	qos := app.QoS()
	qos.Latency = sim.Duration(float64(qos.Latency) * cfg.TimeScale)

	// Plan-level drift: inflate execution times once the drift step hits,
	// modeled as extra sleep proportional to the measured work — the live
	// analogue of the simulator's interference hook. The predictor is NOT
	// told, which is the point: its error inflates until QoS′ tightens.
	exec := live.DemoExecutor(app, mock, cfg.TimeScale)
	if d := splan.Drift; d != nil && d.Factor > 1 {
		drift := *d
		var recorded atomic.Bool
		inner := exec
		exec = func(r live.Request, lvl cpu.Level) {
			now := wall()
			active := now >= drift.At && (drift.RecoverAt <= 0 || now < drift.RecoverAt)
			start := time.Now()
			inner(r, lvl)
			if active {
				if recorded.CompareAndSwap(false, true) {
					inj.Record(fault.SiteDrift, 1)
				}
				time.Sleep(time.Duration(float64(time.Since(start)) * (drift.Factor - 1)))
			}
		}
	}
	srv, err := live.NewServer(live.ServerConfig{
		Addr:            "127.0.0.1:0",
		Workers:         cfg.Workers,
		QoS:             qos,
		Predictor:       fault.CorruptingPredictor{Inner: live.ScaledPredictor{Inner: cal.Model, Scale: cfg.TimeScale}, Inj: inj},
		Backend:         backend,
		Exec:            exec,
		MonitorInterval: time.Duration(float64(100*time.Millisecond) * cfg.TimeScale),
		Metrics:         cfg.Registry,
		AppName:         app.Name(),
		Faults:          inj,
		Degrade:         cfg.Policy,
		Params:          cfg.Params,
	})
	if err != nil {
		return nil, err
	}
	srv.Start()

	window := time.Duration(cfg.Seconds * cfg.TimeScale * float64(time.Second))
	cres, cerr := live.RunLoad(live.LoadConfig{
		Addr:         srv.Addr(),
		Trace:        live.PoissonTrace(app, cfg.RPS, window, cfg.Seed+7, splan),
		Conns:        4,
		MaxRetries:   3,
		RetryBackoff: time.Duration(float64(2*time.Millisecond) * cfg.TimeScale),
	})
	rep := &LiveChaosReport{
		Plan:          cfg.Plan.Name,
		Workers:       cfg.Workers,
		Counts:        srv.DegradeCounts(),
		PinnedWorkers: srv.PinnedWorkers(),
		Decisions:     srv.Decisions(),
		QoS:           time.Duration(float64(qos.Latency) * 1e9),
		QoSPrime:      srv.QoSPrime(),
	}
	if err := srv.Close(); err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	rep.LoadResult = cres
	for s := fault.Site(0); s < fault.NumSites; s++ {
		rep.Injected[s] = inj.Fired(s)
	}
	// Post-shutdown grid consistency: every known applied level must match
	// the mock's recorded hardware level.
	rep.GridConsistent = true
	for w := 0; w < cfg.Workers; w++ {
		if lvl, known := srv.AppliedLevel(w); known && mock.Level(w) != lvl {
			rep.GridConsistent = false
		}
	}
	return rep, nil
}

// Render prints the wall-clock degradation report.
func (r *LiveChaosReport) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live chaos — plan %s, %d workers\n", r.Plan, r.Workers)
	fmt.Fprintf(&b, "client      sent %d  completed %d  retries %d  dropped %d  unanswered %d\n",
		r.Sent, r.Completed, r.Retries, r.Dropped, r.Unanswered)
	fmt.Fprintf(&b, "latency     p50 %v  p95 %v  p99 %v\n", r.Quantile(0.50), r.Quantile(0.95), r.Quantile(0.99))
	fmt.Fprintf(&b, "recovery    dvfs errors %d  retries %d  fallbacks %d  shed %d  deadline drops %d\n",
		r.Counts.DVFSWriteErrors, r.Counts.DVFSRetries, r.Counts.DVFSFallbacks,
		r.Counts.Shed, r.Counts.DeadlineDrops)
	fmt.Fprintf(&b, "injected    %s\n", renderInjected(r.Injected))
	fmt.Fprintf(&b, "state       pinned %d  decisions %d  qos' %v (target %v)  grid consistent %v\n",
		r.PinnedWorkers, r.Decisions, r.QoSPrime, r.QoS, r.GridConsistent)
	return b.String()
}
