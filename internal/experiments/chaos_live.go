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
	"retail/internal/predict"
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

// LiveConfig drives one wall-clock runtime: NewLiveRuntime assembles the
// server from it, and RunLiveChaos also drives that server with its
// retrying client. The zero value of every field selects a sensible
// default, so tests can set only Plan.
type LiveConfig struct {
	// Plan is the fault plan to replay (required by RunLiveChaos;
	// timelines are canonical 10-second seconds — TimeScale compresses
	// them onto the wall clock). Nil runs the runtime without faults.
	Plan *fault.Plan
	// App is the workload model (default moses).
	App workload.App
	// Workers is the worker/core count (default 2).
	Workers int
	// RPS is the chaos client's wall-clock arrival rate (default 60: busy
	// but under the latency wall, so shedding concentrates in the
	// injected windows).
	RPS float64
	// Seconds is the chaos scenario's length on the canonical clock
	// (default 10).
	Seconds float64
	// TimeScale compresses canonical seconds to wall seconds (default 0.2:
	// the 10-second plan replays in 2 s, against a fifth of the QoS).
	TimeScale float64
	// SamplesPerLevel sizes the calibration (default 300 — enough for a
	// usable linear model, cheap enough for CI).
	SamplesPerLevel int
	// Seed drives calibration, injection and client pacing.
	Seed int64
	// Addr is the server's listen address (default 127.0.0.1:0).
	Addr string
	// Policy names the frequency policy (policy.Names; "" = retail).
	Policy string
	// Params is the serializable policy parameterization: the runtime's
	// only tunable surface. Under a plan its zero shed and deadline
	// budgets default to the chaos posture (shed at 1.5 × QoS′, drop at
	// 2 × QoS); a zero monitor interval is the paper's 100 ms compressed
	// by TimeScale.
	Params policy.Params
	// Backend, when non-nil, is the DVFS backend to drive (a
	// live.SysfsBackend); nil drives a mock.
	Backend live.Backend
	// Registry, when non-nil, receives the runtime's telemetry plus the
	// injector's retail_faults_injected_total counters.
	Registry *telemetry.Registry
}

// fill applies the zero-value defaults.
func (cfg *LiveConfig) fill() {
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
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
}

// LiveRuntime is an assembled, not yet started wall-clock runtime and the
// parts its callers report on.
type LiveRuntime struct {
	*live.Server
	// Backend is what the server drives: LiveConfig.Backend or Mock,
	// wrapped with the injector under a plan.
	Backend live.Backend
	// Mock is the demo executor's frequency grid and, without a caller
	// backend, the hardware the server drives.
	Mock *live.MockBackend
	// Injector is the plan's fault injector (nil without a plan).
	Injector *fault.Injector
	// Plan is the plan compressed onto wall seconds (nil without one):
	// the schedule a client's overload burst follows.
	Plan *fault.Plan
	// QoS is the compressed latency target the server holds.
	QoS time.Duration
}

// NewLiveRuntime calibrates cfg.App and assembles the wall-clock runtime
// around it. The whole time contract — the QoS target, predictions, the
// service-time profile, the demo executor and the monitor period — is
// compressed by cfg.TimeScale, so the shedding, deadline and QoS′
// arithmetic behaves as at full scale. Under cfg.Plan it wires the fault
// injector into the backend, the predictor and the executor. It is the
// one place a fault-wired live.Server is built.
func NewLiveRuntime(cfg LiveConfig) (*LiveRuntime, error) {
	cfg.fill()
	app, scale := cfg.App, cfg.TimeScale
	platform := core.DefaultPlatform().WithWorkers(cfg.Workers)
	cal, err := core.Calibrate(app, platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rt := &LiveRuntime{Mock: live.NewMockBackend(platform.Grid)}
	rt.Backend = rt.Mock
	if cfg.Backend != nil {
		rt.Backend = cfg.Backend
	}
	qos := app.QoS()
	qos.Latency = sim.Duration(float64(qos.Latency) * scale)
	rt.QoS = time.Duration(float64(qos.Latency) * 1e9)
	p := cfg.Params
	if p.Monitor.Interval == 0 {
		p.Monitor.Interval = 0.1 * scale
	}
	var pred predict.Predictor = live.ScaledPredictor{Inner: cal.Model, Scale: scale}
	exec := live.DemoExecutor(app, rt.Mock, scale)

	if cfg.Plan != nil {
		if p.Degrade.ShedFactor == 0 {
			p.Degrade.ShedFactor = 1.5
		}
		if p.Degrade.DeadlineFactor == 0 {
			p.Degrade.DeadlineFactor = 2
		}
		// The whole plan is compressed onto the wall clock: windows, drift
		// steps and duration magnitudes (stalls, spikes) all shrink by
		// TimeScale, matching the compressed QoS target. The injector and
		// a client's burst then run on plain wall seconds.
		rt.Plan = cfg.Plan.Scaled(scale)
		wall := fault.WallClock()
		inj := fault.New(cfg.Seed, rt.Plan).WithClock(wall)
		inj.Instrument(cfg.Registry, app.Name())
		rt.Injector = inj
		rt.Backend = live.NewFaultyBackend(rt.Backend, inj)
		pred = fault.CorruptingPredictor{Inner: pred, Inj: inj}

		// Plan-level drift: inflate execution times once the drift step
		// hits, modeled as extra sleep proportional to the measured work —
		// the live analogue of the simulator's interference hook. The
		// predictor is NOT told, which is the point: its error inflates
		// until QoS′ tightens.
		if d := rt.Plan.Drift; d != nil && d.Factor > 1 {
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
	}
	profile := make([]float64, len(cal.ProfileAtMax))
	for i, v := range cal.ProfileAtMax {
		profile[i] = v * scale
	}
	rt.Server, err = live.NewServer(live.ServerConfig{
		Addr:         cfg.Addr,
		Workers:      cfg.Workers,
		QoS:          qos,
		Predictor:    pred,
		Backend:      rt.Backend,
		Exec:         exec,
		Policy:       cfg.Policy,
		ProfileAtMax: profile,
		Metrics:      cfg.Registry,
		AppName:      app.Name(),
		Faults:       rt.Injector,
		Params:       p,
	})
	if err != nil {
		return nil, err
	}
	return rt, nil
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
func RunLiveChaos(cfg LiveConfig) (*LiveChaosReport, error) {
	if cfg.Plan == nil {
		return nil, fmt.Errorf("chaos: LiveConfig needs a Plan")
	}
	if cfg.Backend != nil {
		return nil, fmt.Errorf("chaos: RunLiveChaos checks the mock's grid, so LiveConfig.Backend must be nil")
	}
	cfg.fill()
	rt, err := NewLiveRuntime(cfg)
	if err != nil {
		return nil, err
	}
	srv := rt.Server
	srv.Start()

	window := time.Duration(cfg.Seconds * cfg.TimeScale * float64(time.Second))
	cres, cerr := live.RunLoad(live.LoadConfig{
		Addr:         srv.Addr(),
		Trace:        live.PoissonTrace(cfg.App, cfg.RPS, window, cfg.Seed+7, rt.Plan),
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
		QoS:           rt.QoS,
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
		rep.Injected[s] = rt.Injector.Fired(s)
	}
	// Post-shutdown grid consistency: every known applied level must match
	// the mock's recorded hardware level.
	rep.GridConsistent = true
	for w := 0; w < cfg.Workers; w++ {
		if lvl, known := srv.AppliedLevel(w); known && rt.Mock.Level(w) != lvl {
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
