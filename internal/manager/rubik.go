package manager

import (
	"math"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// rubikCost is the decision delay Rubik charges: its statistical table
// lookups are cheap and run on the manager core, off the critical path.
const rubikCost = 1 * sim.Microsecond

// Rubik is the statistical fine-grained baseline (Kasture et al., MICRO'15
// — §II, §VII-A): it keeps an offline-profiled service-time distribution,
// and on every scheduling event picks, from the current queue occupancy,
// the lowest frequency whose *tail-quantile* latency estimate still meets
// QoS. Two properties the paper calls out are reproduced exactly:
//
//   - the per-request prediction is a distribution tail, not a
//     feature-conditioned estimate, so it is usually far above the actual
//     service time (largest RMSE of the three, Table V) and the frequency
//     choice is conservative — QoS always holds but less power is saved;
//   - service time is assumed proportional to 1/frequency: the profile is
//     taken at max frequency and scaled.
//
// The decision is policy.Rubik's; this adapter binds it to the simulator's
// hooks and delays the frequency write by the lookup cost.
type Rubik struct {
	server.NoopHooks
	pol *policy.Rubik
	// pipe is the persistent pipeline view handed to the policy.
	pipe simPipeline
	// sink receives decision-attribution records (nil = tracing off).
	sink server.DecisionSink
}

// NewRubik builds the manager around the policy value policy.New built.
func NewRubik(pol *policy.Rubik) *Rubik { return &Rubik{pol: pol} }

func (m *Rubik) Name() string { return "rubik" }

// Inferences returns the tail-estimate count.
func (m *Rubik) Inferences() uint64 { return m.pol.Estimates() }

// SetDecisionSink attaches a decision-attribution sink (nil = off).
// Attribution reads reuse values the decision loop already computed, so a
// traced Rubik run is byte-identical to an untraced one.
func (m *Rubik) SetDecisionSink(sink server.DecisionSink) { m.sink = sink }

// Attach implements Manager.
func (m *Rubik) Attach(e *sim.Engine, s *server.Server) { s.Hooks = m }

// RMSEAgainstAt scores the tail estimate against measured samples at the
// frequency levels they actually ran at (Table V's Rubik row).
func (m *Rubik) RMSEAgainstAt(grid *cpu.Grid, samples []predict.Sample, actual []float64) float64 {
	if len(samples) == 0 || len(samples) != len(actual) {
		return 0
	}
	sum := 0.0
	for i, s := range samples {
		d := m.pol.Estimate(grid.Clamp(s.Level)) - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(samples)))
}

func (m *Rubik) decide(e *sim.Engine, w *server.Worker, head *workload.Request, headProgress float64, extra *workload.Request) {
	now := e.Now()
	m.pipe.fill(w, head, headProgress, extra)
	chosen, bind := m.pol.Choose(float64(now), &m.pipe)
	bindID := m.pipe.req(bind).ID
	queueLen := len(m.pipe.queue)
	m.pipe.clear()
	if m.sink != nil {
		m.sink.RecordDecision(server.Decision{
			At:               now,
			Worker:           w.ID,
			Head:             head.ID,
			Level:            chosen,
			Binding:          bindID,
			QueueLen:         queueLen,
			QoSPrime:         sim.Duration(m.pol.QoSPrime()), // Rubik has no latency monitor
			DecisionDelay:    rubikCost,
			PredictedService: m.pol.Tail(chosen),
		})
	}
	e.After(rubikCost, "rubik.setfreq", func(en *sim.Engine) {
		w.Core().SetLevel(en, chosen)
	})
}

// Arrival implements server.Hooks: Rubik re-evaluates on queue growth,
// including the newly arriving request in the pipeline estimate.
func (m *Rubik) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	if cur := w.Current(); cur != nil {
		m.decide(e, w, cur, w.ProgressFraction(e.Now()), r)
	}
	return true
}

// Start implements server.Hooks.
func (m *Rubik) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	m.decide(e, w, r, 0, nil)
}
