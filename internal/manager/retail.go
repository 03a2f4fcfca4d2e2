package manager

import (
	"math"
	"slices"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// ReTailConfig parameterizes the ReTail runtime.
type ReTailConfig struct {
	// Layout is the feature-selection result driving the predictor.
	Layout predict.FeatureLayout
	// Model is the initial predictor from online calibration. Usually a
	// *predict.LinearModel; the decomposition study (Fig 12) swaps in an
	// NN predictor to isolate the prediction mechanism's contribution.
	Model predict.Predictor
	// Training is the live sample store feeding retraining; it should be
	// the same set the calibration filled. Nil disables online retraining
	// (retraining always refits the linear model class).
	Training *predict.TrainingSet

	// Policy is the decision core policy.New built for "retail" under
	// SimEnv: Algorithm 1, the QoS′ monitor (whose interval is the tick
	// period), the HeadOnly ablation and the per-class targets. Required.
	Policy *policy.Retail

	// InferenceCost is the virtual time per LatencyPredictor call (paper:
	// 5 µs). The ReTail runtime lives on a dedicated core, so this cost
	// delays only when the new frequency takes effect — never the request.
	InferenceCost sim.Duration
	// DriftThreshold is the RMSE/QoS increase that triggers retraining
	// (paper: 0.05); DriftWindow is the live-error window size.
	DriftThreshold float64
	DriftWindow    int
	// RetrainLatency is the virtual time from drift detection until the
	// new model is live (paper measures < 0.1 s; the old model serves
	// predictions meanwhile).
	RetrainLatency sim.Duration
	// Stage1Frac, when non-nil, gives the per-request feature-extraction
	// split point — the max lateness among the selected features *this
	// request's category actually needs*. Nil falls back to the global
	// maximum lateness of the selected features.
	Stage1Frac func(*workload.Request) float64
}

// DefaultReTailConfig fills the paper's constants, leaving the policy,
// model and layout for the calibration pipeline to provide.
func DefaultReTailConfig() ReTailConfig {
	return ReTailConfig{
		InferenceCost:  5 * sim.Microsecond,
		DriftThreshold: 0.05,
		DriftWindow:    200,
		RetrainLatency: 50 * sim.Millisecond,
	}
}

// SimEnv is the simulator's policy environment for policy.New: the
// application's QoS, the platform grid and profile, the simulator monitor
// posture, and a tick every 100 ms (the paper's monitor period) unless
// p's tuned interval moves it.
func SimEnv(qos workload.QoS, grid *cpu.Grid, profileAtMax []float64, p policy.Params) policy.Env {
	tick := float64(100 * sim.Millisecond)
	if iv := p.Monitor.Interval; iv != 0 {
		tick = iv
	}
	return policy.Env{
		QoS:          float64(qos.Latency),
		Percentile:   qos.Percentile,
		Grid:         grid,
		ProfileAtMax: profileAtMax,
		Tick:         tick,
		Posture:      policy.SimPosture,
	}
}

// ReTail is the simulator adapter for the paper's power manager: the
// clock-agnostic decision core (policy.Retail) bound to virtual time,
// plus the pieces that are inherently simulator-side —
// prediction caching, inference accounting, drift-triggered online
// retraining and the deferred frequency writes that model decision
// delay. The wall-clock runtime (internal/live) binds the same core to
// monotonic time; the replay-parity harness in internal/experiments
// asserts the two adapters decide identically on one recorded trace.
type ReTail struct {
	server.NoopHooks
	cfg  ReTailConfig
	srv  *server.Server
	qos  workload.QoS
	grid *cpu.Grid

	model predict.Predictor
	drift *predict.DriftDetector
	// pol is the shared decision core; pipe is the persistent pipeline
	// view handed to it so the hot path allocates nothing.
	pol  *policy.Retail
	pipe simPipeline

	// modelGen stamps the prediction slots (workload.PredSlot) this
	// manager fills. Algorithm 1 enumerates L frequency levels over the
	// worker's whole pipeline, so a naive implementation builds Q feature
	// vectors and runs L×Q inferences per decision; with the slot, each
	// (level, request) pair is predicted once until the request's
	// readiness flips or a retrain bumps modelGen. It starts at 1 so the
	// zero stamp always means empty. See predictService for the
	// inference-counting rule.
	modelGen uint64
	// scratch backs the Complete hook's feature build (drift bookkeeping),
	// which needs no cache because each completed request is scored once.
	scratch []float64

	retraining bool

	// monDisabled caches the monitor ablation switch for the tick path.
	monDisabled bool

	// bindID tracks Algorithm 1's binding request — the pipeline member
	// whose predicted deadline forced the search past the previous level —
	// at the cost of one scalar store per failed check; decide reports it
	// in the Decision it hands the server's decision sinks.
	bindID uint64

	// freqFree pools the deferred frequency-write callbacks so decide
	// allocates nothing in steady state: each entry carries a closure
	// built once that reads the entry's (worker, level) when it fires.
	freqFree []*freqApply

	// Telemetry.
	inferences    uint64
	retrains      int
	decisions     int
	qosPrimeTrace []TracePoint
	rmseTrace     []TracePoint
	collectTraces bool

	// Registry-backed instruments (nil unless Instrument was called).
	qosPrimeGauge   *telemetry.Gauge
	retrainCounter  *telemetry.Counter
	decisionCounter *telemetry.Counter
}

// TracePoint is a timestamped scalar for the timeline figures.
type TracePoint struct {
	At    sim.Time
	Value float64
}

// NewReTail builds the manager for the given application QoS around
// cfg.Policy.
func NewReTail(qos workload.QoS, cfg ReTailConfig) *ReTail {
	if cfg.Policy == nil {
		panic("manager: ReTailConfig.Policy is nil")
	}
	if cfg.InferenceCost == 0 {
		cfg.InferenceCost = 5 * sim.Microsecond
	}
	if cfg.RetrainLatency == 0 {
		cfg.RetrainLatency = 50 * sim.Millisecond
	}
	m := &ReTail{
		cfg:         cfg,
		qos:         qos,
		model:       cfg.Model,
		modelGen:    1,
		pol:         cfg.Policy,
		monDisabled: cfg.Policy.Monitor().Config().Disabled,
	}
	m.pipe.m = m
	m.drift = predict.NewDriftDetector(float64(qos.Latency), cfg.DriftThreshold, cfg.DriftWindow)
	return m
}

func (m *ReTail) Name() string { return "retail" }

// EnableTraces turns on QoS′ and RMSE/QoS timeline recording (Fig 14).
func (m *ReTail) EnableTraces() { m.collectTraces = true }

// Instrument wires the manager's control-loop signals into a telemetry
// registry under the given app label: the QoS′ gauge (updated every
// monitor tick), the frequency-decision counter, the drift-event counter
// (one per detected episode) and the completed-retrain counter. Combine
// with server.AttachTelemetry for the per-request histograms; together
// they expose the full paper §VI control loop.
func (m *ReTail) Instrument(reg *telemetry.Registry, app string) {
	appLabel := telemetry.L("app", app)
	m.qosPrimeGauge = reg.Gauge(server.MetricQoSPrime,
		"Internal latency target QoS' steered by the latency monitor.", appLabel)
	m.qosPrimeGauge.Set(m.pol.QoSPrime())
	m.retrainCounter = reg.Counter(server.MetricRetrainsTotal,
		"Drift-triggered model retrains that went live.", appLabel)
	m.decisionCounter = reg.Counter(server.MetricDecisionsTotal,
		"Algorithm 1 frequency decisions.", appLabel)
	driftCounter := reg.Counter(server.MetricDriftTotal,
		"Model-drift episodes detected (RMSE/QoS above baseline+threshold).", appLabel)
	m.drift.OnDrift(driftCounter.Inc)
}

// SetClassTargets installs per-SLO-class QoS′ multipliers (from a cohort
// spec's class table). The empty value restores the single-class
// behavior; policy.ClassTargets.Apply is the bit-identity then, so
// pre-class goldens are unaffected.
func (m *ReTail) SetClassTargets(t policy.ClassTargets) { m.pol.SetClassTargets(t) }

// SetModel replaces the predictor before the run starts; the chaos runner
// interposes fault.CorruptingPredictor here. Every filled prediction slot
// goes stale, exactly as after a retrain.
func (m *ReTail) SetModel(p predict.Predictor) {
	m.model = p
	m.modelGen++
}

// Traces returns the recorded QoS′ and RMSE/QoS timelines.
func (m *ReTail) Traces() (qosPrime, rmse []TracePoint) {
	return m.qosPrimeTrace, m.rmseTrace
}

// Inferences returns the total LatencyPredictor invocations (overhead
// accounting, §VII-F).
func (m *ReTail) Inferences() uint64 { return m.inferences }

// Decisions returns how many frequency decisions were computed.
func (m *ReTail) Decisions() int { return m.decisions }

// Retrains returns how many drift-triggered retrainings completed.
func (m *ReTail) Retrains() int { return m.retrains }

// QoSPrime returns the current internal latency target.
func (m *ReTail) QoSPrime() sim.Duration { return sim.Duration(m.pol.QoSPrime()) }

// MonitorSettings returns the effective QoS′-monitor configuration (all
// defaults filled). The replay-parity harness feeds it to the live
// runtime's replay so both monitors start from identical constants.
func (m *ReTail) MonitorSettings() policy.MonitorConfig { return m.pol.Monitor().Config() }

// Attach implements Manager.
func (m *ReTail) Attach(e *sim.Engine, s *server.Server) {
	m.srv = s
	m.grid = s.Socket.Cores[0].Grid()
	s.Hooks = m
	// The feature-extraction split point comes from the selected features'
	// lateness.
	if m.cfg.Stage1Frac != nil {
		s.SetStage1Frac(m.cfg.Stage1Frac)
	} else {
		maxLate := 0.0
		for _, j := range m.cfg.Layout.Selected {
			if l := m.cfg.Layout.Specs[j].Lateness; l > maxLate {
				maxLate = l
			}
		}
		if maxLate > 0 {
			s.SetStage1Frac(func(*workload.Request) float64 { return maxLate })
		}
	}
	m.scheduleMonitor(e)
}

// simTimer binds policy.Timer to the simulator's event loop: delays are
// virtual time, and the callback receives virtual-now as float64 seconds
// (sim.Time's underlying representation, so the conversion is identity).
type simTimer struct{ e *sim.Engine }

// timerTrampoline adapts a policy timer callback to the engine's
// closure-free AtCall form; the callback (RunMonitor's single long-lived
// fire closure) rides along as the argument, so re-arming the monitor
// allocates nothing. Func values are pointer-shaped, so the interface
// conversion does not allocate either.
func timerTrampoline(en *sim.Engine, arg any) {
	arg.(func(policy.Time))(float64(en.Now()))
}

func (t simTimer) AfterFunc(d policy.Duration, name string, fn func(now policy.Time)) {
	t.e.AfterCall(sim.Duration(d), name, timerTrampoline, fn)
}

// scheduleMonitor ticks the monitor every interval: under SimPosture the
// monitor's interval is the simulator's tick period.
func (m *ReTail) scheduleMonitor(e *sim.Engine) {
	policy.RunMonitor(simTimer{e}, m.MonitorSettings().Interval, "retail.monitor", m.monitorTick)
}

// monitorTick runs one shared-monitor step (§VI-C, policy.Monitor.Tick)
// and mirrors the result into the simulator-side telemetry. The
// DisableMonitor ablation returns before the gauge and trace updates —
// the historical behavior the ablation goldens encode.
func (m *ReTail) monitorTick(now policy.Time) {
	m.pol.Tick(now)
	if m.monDisabled {
		return
	}
	if m.qosPrimeGauge != nil {
		m.qosPrimeGauge.Set(m.pol.QoSPrime())
	}
	if m.collectTraces {
		m.qosPrimeTrace = append(m.qosPrimeTrace, TracePoint{sim.Time(now), m.pol.QoSPrime()})
		if cur, ok := m.drift.Current(); ok {
			m.rmseTrace = append(m.rmseTrace, TracePoint{sim.Time(now), cur})
		}
	}
}

// predict returns the model's predicted service time for r at lvl from r's
// prediction slot. A slot stamped under another model generation — or
// under none, because it is empty or r just became ready — is rebuilt
// first: the observable feature vector (late features read as zero until
// r is ready) and every level unpredicted. predict counts nothing.
func (m *ReTail) predict(lvl cpu.Level, r *workload.Request) float64 {
	s := &r.Pred
	if s.Gen != m.modelGen {
		s.Gen = m.modelGen
		s.Feats = AppendObservableFeatures(s.Feats, m.cfg.Layout.Specs, r, s.Ready, false)
		s.Vals = slices.Grow(s.Vals[:0], m.grid.Levels())[:m.grid.Levels()]
		for i := range s.Vals {
			s.Vals[i] = math.NaN()
		}
	}
	v := s.Vals[lvl]
	if math.IsNaN(v) {
		v = m.model.Predict(lvl, s.Feats)
		s.Vals[lvl] = v
	}
	return v
}

// predictService is predict as Algorithm 1's LatencyPredictor
// consultation, which counts one inference whether the slot answers or
// the model runs. The paper charges decision delay per consultation on
// the runtime core; the slot is a host-side optimization that removes the
// simulator's own CPU and allocation cost, not the modeled runtime's work.
// Counting slot hits therefore keeps decision delays — and every simulated
// timing downstream of them — byte-identical to a cache-free
// implementation. The decision's attribution read (decide) calls predict
// directly: it is host-side observability, and charging it would make an
// observed run diverge from an unobserved one.
func (m *ReTail) predictService(lvl cpu.Level, r *workload.Request) float64 {
	m.inferences++
	return m.predict(lvl, r)
}

// simPipeline adapts one worker's pipeline (head, queued requests, and
// an optional just-arriving extra not yet enqueued) to policy.Pipeline.
// Each manager keeps one persistent value and refills it per decision,
// and the &m.pipe interface conversion is a pointer — not a box — so the
// hot path allocates nothing (TestRetailDecideZeroAlloc). m is the ReTail
// whose prediction slots answer Predict; Rubik's policy substitutes its
// own estimate for every prediction, so its pipeline leaves m nil.
type simPipeline struct {
	m            *ReTail
	head         *workload.Request
	queue        []*workload.Request
	extra        *workload.Request
	headProgress float64
}

// req maps a pipeline index to its request: 0 is the head, 1..len(queue)
// are the queued requests in FCFS order, and the final index — present
// only when extra is non-nil — is the just-arriving request.
func (p *simPipeline) req(i int) *workload.Request {
	if i == 0 {
		return p.head
	}
	if i <= len(p.queue) {
		return p.queue[i-1]
	}
	return p.extra
}

func (p *simPipeline) Len() int {
	n := 1 + len(p.queue)
	if p.extra != nil {
		n++
	}
	return n
}

func (p *simPipeline) Gen(i int) policy.Time { return float64(p.req(i).Gen) }

func (p *simPipeline) Predict(lvl cpu.Level, i int) float64 {
	return p.m.predictService(lvl, p.req(i))
}

func (p *simPipeline) HeadProgress() float64 { return p.headProgress }

// fill points the pipeline at one worker's state for a decision.
func (p *simPipeline) fill(w *server.Worker, head *workload.Request, headProgress float64, extra *workload.Request) {
	p.head, p.queue, p.extra, p.headProgress = head, w.Queue(), extra, headProgress
}

// clear drops the request references so completed requests are
// collectable between decisions.
func (p *simPipeline) clear() { p.head, p.queue, p.extra = nil, nil, nil }

// targetLevel is Algorithm 1 (policy.Alg1) over the worker's pipeline:
// enumerate frequencies from lowest to second-highest, and return the
// first under which every request in the pipeline (head, queue, plus an
// optional just-arriving request not yet enqueued) is predicted to meet
// QoS′. headProgress discounts the head request's already-completed work
// (progress is what hardware cycle counters report in the real system).
//
// The binding request defaults to the head: if the lowest level is
// chosen without any failed check, the head bound trivially. Each failed
// deadline check overwrites it, so when the search settles on level L
// the field holds whichever request ruled out L−1 (or forced the
// max-level fallback). A scalar store per failure keeps the hot loop
// allocation-free whether or not a decision sink is registered.
func (m *ReTail) targetLevel(e *sim.Engine, w *server.Worker, head *workload.Request, headProgress float64, extra *workload.Request) cpu.Level {
	m.pipe.fill(w, head, headProgress, extra)
	// The head's SLO class scales the budget (identity when no class
	// targets are configured), exactly as on the live server — which is
	// what keeps the two adapters' decision streams byte-identical under
	// replay.
	lvl, bind := m.pol.Choose(float64(e.Now()), &m.pipe, head.SLOClass)
	m.bindID = m.pipe.req(bind).ID
	m.pipe.clear()
	return lvl
}

// freqApply is a pooled deferred frequency write: the closure is built
// once per pool entry and rereads the entry's fields when it fires, so
// scheduling a decision's SetLevel allocates nothing in steady state.
type freqApply struct {
	m   *ReTail
	w   *server.Worker
	lvl cpu.Level
	fn  func(*sim.Engine)
}

func (m *ReTail) getFreqApply(w *server.Worker, lvl cpu.Level) *freqApply {
	var fa *freqApply
	if n := len(m.freqFree); n > 0 {
		fa = m.freqFree[n-1]
		m.freqFree[n-1] = nil
		m.freqFree = m.freqFree[:n-1]
	} else {
		fa = &freqApply{m: m}
		fa.fn = func(en *sim.Engine) { fa.run(en) }
	}
	fa.w, fa.lvl = w, lvl
	return fa
}

func (fa *freqApply) run(en *sim.Engine) {
	// The head may have completed during the decision; the level is still
	// the best estimate for the pipeline, so apply regardless.
	fa.w.Core().SetLevel(en, fa.lvl)
	fa.w = nil
	fa.m.freqFree = append(fa.m.freqFree, fa)
}

// decide runs Algorithm 1 for the worker's head request and applies the
// result. The computation happens on ReTail's dedicated runtime core, so
// the only latency it adds is before the frequency write lands: the
// decision delay (inference count × cost) is appended to the hardware
// transition latency by deferring the SetLevel call.
func (m *ReTail) decide(e *sim.Engine, w *server.Worker, head *workload.Request, headProgress float64, extra *workload.Request) {
	before := m.inferences
	lvl := m.targetLevel(e, w, head, headProgress, extra)
	m.decisions++
	if m.decisionCounter != nil {
		m.decisionCounter.Inc()
	}
	cost := sim.Duration(float64(m.inferences-before)) * m.cfg.InferenceCost
	// With a decision sink on the server, report one Decision per
	// Algorithm 1 invocation: the chosen level, the binding request, QoS′
	// and the predicted service time. The prediction is a host-side read
	// of the head's slot, not charged to the modeled inference budget, so
	// an observed run never diverges from an unobserved one.
	if w.WantsDecisions() {
		w.RecordDecision(server.Decision{
			At:               e.Now(),
			Worker:           w.ID,
			Head:             head.ID,
			Level:            lvl,
			Binding:          m.bindID,
			QueueLen:         len(w.Queue()),
			QoSPrime:         sim.Duration(m.pol.Budget(head.SLOClass)),
			Class:            head.SLOClass,
			DecisionDelay:    cost,
			PredictedService: m.predict(lvl, head),
		})
	}
	e.After(cost, "retail.setfreq", m.getFreqApply(w, lvl).fn)
}

// Arrival implements server.Hooks: re-examine the running request's
// frequency, since the newcomer's queueing delay depends on it (§VI-B:
// "upon any new requests added before R1 completes, Algorithm 1 is
// invoked to check or update R1's frequency").
func (m *ReTail) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	if cur := w.Current(); cur != nil {
		// r has not been enqueued yet; include it explicitly so R1's
		// frequency accounts for the newcomer's deadline too.
		m.decide(e, w, cur, w.ProgressFraction(e.Now()), r)
	}
	return true
}

// Ready implements server.Hooks: r's application features are now
// observable, so its slot, filled (if at all) without them, goes stale.
func (m *ReTail) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if !r.Pred.Ready {
		r.Pred.Ready, r.Pred.Gen = true, 0
	}
	// Fresh application features can change the pipeline estimate.
	if cur := w.Current(); cur != nil && cur != r {
		m.decide(e, w, cur, w.ProgressFraction(e.Now()), nil)
	}
}

// Start implements server.Hooks: the frequency predictor runs when a
// request is scheduled.
func (m *ReTail) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	m.decide(e, w, r, 0, nil)
}

// cleanSample reports whether the request executed (almost) entirely at
// its final frequency level, so its measured service time is a valid
// training label for that level. Requests boosted or re-targeted late in
// their execution mix frequencies and would poison the model.
func cleanSample(r *workload.Request) bool {
	if r.LevelShifts == 0 {
		return true
	}
	dur := r.End - r.Start
	if dur <= 0 {
		return false
	}
	return float64(r.LastLevelShift-r.Start) <= 0.15*float64(dur)
}

// Complete implements server.Hooks: record the sample for online
// (re)training, feed the drift detector and the latency monitor.
func (m *ReTail) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	m.pol.Observe(float64(e.Now()), float64(r.Sojourn()))
	if cleanSample(r) {
		actual := float64(r.ServiceTime())
		lvl := cpu.Level(r.ServedLevel)
		m.scratch = AppendObservableFeatures(m.scratch, m.cfg.Layout.Specs, r, true, false)
		predicted := m.model.Predict(lvl, m.scratch)
		m.drift.Observe(predicted, actual)
		if m.cfg.Training != nil {
			m.cfg.Training.Add(predict.Sample{Level: lvl, Features: r.Features, Service: actual})
		}
	}
	if m.drift.Drifted() && !m.retraining {
		m.retrain(e)
	}
}

// retrain refits the model from the latest samples after RetrainLatency of
// virtual time; the old model keeps serving meanwhile (§V-D).
func (m *ReTail) retrain(e *sim.Engine) {
	if m.cfg.Training == nil {
		return
	}
	m.retraining = true
	e.After(m.cfg.RetrainLatency, "retail.retrain", func(en *sim.Engine) {
		m.retraining = false
		nm, err := predict.FitLinear(m.cfg.Training, m.cfg.Layout, m.grid.Levels())
		if err != nil {
			return // keep the old model; more samples will accumulate
		}
		m.model = nm
		m.modelGen++ // every slot filled by the old model goes stale
		m.retrains++
		if m.retrainCounter != nil {
			m.retrainCounter.Inc()
		}
		m.drift.Reset()
		// The healthy baseline may only improve: right after a drift the
		// training rings still hold pre-drift samples, so the refit model
		// can score poorly against them — raising the baseline then would
		// mask persistent drift and suppress the follow-up retrains that
		// finish the convergence.
		if met, err := predict.Evaluate(nm, m.cfg.Training.All()); err == nil {
			newBase := met.RMSE / float64(m.qos.Latency)
			if old, ok := m.drift.Baseline(); !ok || newBase < old {
				m.drift.SetBaseline(newBase)
			}
		}
	})
}

// invalidatePredictions stales every prediction slot by bumping the model
// generation — exactly what a live retrain does. Benchmarks use it to
// exercise the cold (slot-miss) path.
func (m *ReTail) invalidatePredictions() { m.modelGen++ }

// Model returns the live predictor (tests and experiments inspect it).
func (m *ReTail) Model() predict.Predictor { return m.model }

// SetDriftBaseline records the healthy-state RMSE/QoS (normally set by the
// calibration pipeline right after the initial fit).
func (m *ReTail) SetDriftBaseline(rmseOverQoS float64) { m.drift.SetBaseline(rmseOverQoS) }

// SmoothedTail exposes the monitor's EWMA tail estimate for diagnostics.
func (m *ReTail) SmoothedTail() float64 { return m.pol.Monitor().SmoothedTail() }
