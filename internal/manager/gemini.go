package manager

import (
	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// GeminiConfig parameterizes the Gemini baseline.
type GeminiConfig struct {
	// Model is the NN latency predictor (request-arrival features only;
	// proportional frequency scaling).
	Model *predict.NNModel
	// InferenceCost is the on-critical-path NN inference time. The paper
	// measures > 300 µs per request for Gemini's network (Table IV /
	// §VII-B point 3) — large enough to hurt sub-millisecond services.
	InferenceCost sim.Duration
	// BoostFrac places the two-step DVFS checkpoint at this fraction of
	// the predicted service time; at the checkpoint a still-running
	// request is boosted to max frequency to absorb prediction error.
	BoostFrac float64
	// DropOnPredictedMiss enables Gemini's load shedding: requests whose
	// predicted completion (even at max frequency) exceeds QoS are dropped
	// at arrival.
	DropOnPredictedMiss bool
}

// DefaultGeminiConfig matches the paper's characterization of Gemini.
func DefaultGeminiConfig(model *predict.NNModel) GeminiConfig {
	return GeminiConfig{
		Model:               model,
		InferenceCost:       300 * sim.Microsecond,
		BoostFrac:           0.8,
		DropOnPredictedMiss: true,
	}
}

// Gemini is the NN-based fine-grained baseline (§II, §VII). The paper
// identifies four behaviors that separate it from ReTail, all reproduced:
//
//  1. it drops requests predicted to miss the deadline (drop rate grows
//     super-linearly with load, Fig 11b);
//  2. its frequency choice assumes fully compute-bound requests — latency
//     ∝ 1/frequency — overestimating the needed frequency for
//     memory-bound services;
//  3. two-step DVFS: requests start at a low predicted-sufficient
//     frequency and are boosted near the deadline, paying the
//     super-linear power cost twice;
//  4. NN inference takes hundreds of µs, so the frequency decision lands
//     only that long after a request starts — after a sub-millisecond
//     request is mostly done — leaving such services mismanaged (QoS
//     violations for Masstree and Silo, §VII-C); there is no latency
//     monitor and QoS′ is pinned to QoS.
type Gemini struct {
	server.NoopHooks
	cfg  GeminiConfig
	qos  workload.QoS
	grid *cpu.Grid
	spec []workload.FeatureSpec

	// scratch serves the one forward pass per request (see predictAt).
	scratch predict.NNScratch

	inferences uint64
	boosts     int
	dropped    int
	// sink receives decision-attribution records (nil = tracing off).
	sink server.DecisionSink
}

// NewGemini builds the manager.
func NewGemini(qos workload.QoS, specs []workload.FeatureSpec, cfg GeminiConfig) *Gemini {
	if cfg.InferenceCost == 0 {
		cfg.InferenceCost = 300 * sim.Microsecond
	}
	if cfg.BoostFrac == 0 {
		cfg.BoostFrac = 0.8
	}
	return &Gemini{cfg: cfg, qos: qos, spec: specs}
}

func (m *Gemini) Name() string { return "gemini" }

// Config returns the manager's configuration (the trained model is shared
// and immutable, so experiment harnesses rebuild fresh managers from it).
func (m *Gemini) Config() GeminiConfig { return m.cfg }

// Inferences returns the NN inference count.
func (m *Gemini) Inferences() uint64 { return m.inferences }

// Boosts returns how many two-step boosts fired.
func (m *Gemini) Boosts() int { return m.boosts }

// SetDecisionSink attaches a decision-attribution sink (nil = off). The
// emitted Decision reuses the prediction the two-step DVFS logic already
// computed, so tracing never perturbs the inference count or timing.
func (m *Gemini) SetDecisionSink(sink server.DecisionSink) { m.sink = sink }

// Attach implements Manager.
func (m *Gemini) Attach(e *sim.Engine, s *server.Server) {
	m.grid = s.Socket.Cores[0].Grid()
	s.Hooks = m
}

// geminiGen stamps the prediction slots Gemini fills; its network is never
// retrained, so one generation serves the whole run.
const geminiGen = 1

// predictAt is one modeled NN inference: r's predicted service time at lvl.
// The admission check consults the network for every request queued ahead
// of an arrival and the level search once per tried level, but the
// network's output depends on the request alone — only the f_ref/f
// scaling varies — so the first consultation runs the forward pass on
// request-arrival features into r's prediction slot (Vals[0] holds the
// unscaled estimate) and later ones scale from there. This saves the host
// the repeated forward passes, not the modeled manager: inferences still
// counts every consultation (see ReTail.predictService for the rule).
func (m *Gemini) predictAt(lvl cpu.Level, r *workload.Request) float64 {
	m.inferences++
	s := &r.Pred
	if s.Gen != geminiGen {
		s.Gen = geminiGen
		s.Feats = AppendObservableFeatures(s.Feats, m.spec, r, false, true)
		s.Vals = append(s.Vals[:0], m.cfg.Model.Base(&m.scratch, s.Feats))
	}
	return m.cfg.Model.Scale(s.Vals[0], lvl)
}

// Arrival implements server.Hooks: the admission check. The inference
// runs on Gemini's manager core, off the workers' critical path.
func (m *Gemini) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	if !m.cfg.DropOnPredictedMiss {
		return true
	}
	// Estimate queueing ahead of r: predicted service of everything
	// queued plus the running request's budget, all at max frequency.
	queueAhead := 0.0
	for _, q := range w.Queue() {
		queueAhead += m.predictAt(m.grid.MaxLevel(), q)
	}
	if cur := w.Current(); cur != nil {
		rem := m.predictAt(m.grid.MaxLevel(), cur) * (1 - w.ProgressFraction(e.Now()))
		if rem > 0 {
			queueAhead += rem
		}
	}
	elapsed := float64(e.Now() - r.Gen)
	svcAtMax := m.predictAt(m.grid.MaxLevel(), r)
	if !policy.GeminiAdmit(elapsed, queueAhead, svcAtMax, float64(m.qos.Latency)) {
		m.dropped++
		return false
	}
	return true
}

// Start implements server.Hooks: step one of two-step DVFS — pick the
// lowest frequency whose (proportionally scaled) prediction fits the
// remaining budget, and schedule the boost checkpoint. The decision only
// lands after the NN inference latency, during which the request runs at
// whatever frequency the core was left at — for sub-millisecond services
// that is most of the request.
func (m *Gemini) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	budget := float64(m.qos.Latency) - float64(e.Now()-r.Gen)
	maxLvl := m.grid.MaxLevel()
	chosen, predicted := policy.GeminiLevel(budget, maxLvl, func(lvl cpu.Level) float64 {
		return m.predictAt(lvl, r)
	})
	if m.sink != nil {
		m.sink.RecordDecision(server.Decision{
			At:               e.Now(),
			Worker:           w.ID,
			Head:             r.ID,
			Level:            chosen,
			Binding:          r.ID, // Gemini sizes the frequency to the request alone
			QueueLen:         len(w.Queue()),
			QoSPrime:         m.qos.Latency, // pinned: no latency monitor
			DecisionDelay:    m.cfg.InferenceCost,
			PredictedService: predicted,
		})
	}
	// Identity across time is pointer AND ID: request nodes may be pooled,
	// so a later event can see the same pointer hosting a different
	// request. IDs are never reused, so the pair is exact.
	id := r.ID
	e.After(m.cfg.InferenceCost, "gemini.setfreq", func(en *sim.Engine) {
		if cur := w.Current(); cur != r || cur.ID != id {
			return // already finished: the decision arrived too late
		}
		w.Core().SetLevel(en, chosen)
		if chosen == maxLvl {
			return
		}
		// Step two: at BoostFrac of the predicted service, boost to max if
		// the request is still running (it almost always is, since the
		// checkpoint lands before the predicted completion).
		en.After(sim.Duration(m.cfg.BoostFrac*predicted), "gemini.boost", func(en2 *sim.Engine) {
			if cur := w.Current(); cur == r && cur.ID == id {
				m.boosts++
				w.Core().SetLevel(en2, maxLvl)
			}
		})
	})
}
