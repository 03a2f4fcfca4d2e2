package live

import (
	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/predict"
)

// ReplayDecisions drives the ReTail policy the live server runs — built
// by the same policy.New — through a recorded trace and returns the
// decision sequence it produces. The parity harness in
// internal/experiments records the trace from a simulator run and
// compares this sequence byte-for-byte against the simulator's own
// decisions: if the two adapters fed the shared core the same inputs in
// the same order, the outputs must be bit-identical, proving the live
// decision path is the simulated one.
//
// mon is the recording manager's effective monitor configuration (same
// target, percentile, interval and window policy); pred must be the
// frozen predictor the recording run used. targets are the run's
// per-SLO-class QoS′ multipliers: each replayed decision records the
// class-scaled budget and the head's class, so the encoded stream pins
// the per-class decision dimension too. The empty ClassTargets is the
// single-class replay.
func ReplayDecisions(tr *policy.Trace, pred predict.Predictor, grid *cpu.Grid, mon policy.MonitorConfig, targets policy.ClassTargets) []policy.ReplayDecision {
	// The recorded settings are the posture; with zero Params nothing
	// overrides them.
	pol, err := policy.New("retail", policy.Params{}, policy.Env{
		QoS:        mon.Target,
		Percentile: mon.Percentile,
		Grid:       grid,
		Posture:    func(policy.Duration) policy.MonitorConfig { return mon },
	})
	if err != nil {
		panic(err) // the grid and posture are set above
	}
	d := pol.(*policy.Retail)
	d.SetClassTargets(targets)
	pipe := replayPipeline{tr: tr, pred: pred}
	out := make([]policy.ReplayDecision, 0, len(tr.Events))
	for i := range tr.Events {
		ev := &tr.Events[i]
		switch ev.Kind {
		case policy.DecisionEvent:
			pipe.ev = ev
			cls := pipe.Class(0)
			qp := d.Budget(cls)
			lvl, _ := d.Decide(float64(ev.At), &pipe)
			out = append(out, policy.ReplayDecision{Level: lvl, QoSPrime: policy.Duration(qp), Class: cls})
		case policy.CompletionEvent:
			d.Observe(float64(ev.At), ev.Sojourn)
		case policy.TickEvent:
			d.Tick(float64(ev.At))
		}
	}
	return out
}

// replayPipeline adapts one recorded decision event to policy.Pipeline.
// Member i resolves to the recorded head (i = 0), the FCFS queue
// (1..len(Queue)) or the just-arriving extra member (last, when
// HasExtra); features and generation stamps come from the trace's
// side tables so every float64 the core sees matches the recording run
// bit-for-bit.
type replayPipeline struct {
	tr   *policy.Trace
	pred predict.Predictor
	ev   *policy.TraceEvent
}

func (p *replayPipeline) id(i int) uint64 {
	switch {
	case i == 0:
		return p.ev.Head
	case i <= len(p.ev.Queue):
		return p.ev.Queue[i-1]
	default:
		return p.ev.Extra
	}
}

func (p *replayPipeline) Len() int {
	n := 1 + len(p.ev.Queue)
	if p.ev.HasExtra {
		n++
	}
	return n
}

func (p *replayPipeline) Gen(i int) policy.Time { return p.tr.Gens[p.id(i)] }

func (p *replayPipeline) Predict(lvl cpu.Level, i int) float64 {
	return p.pred.Predict(lvl, p.tr.Features[p.id(i)])
}

func (p *replayPipeline) HeadProgress() float64 { return p.ev.Progress }

// Class implements policy.ClassedPipeline from the trace's class side
// table; a nil map or missing entry is class 0 (pre-class traces).
func (p *replayPipeline) Class(i int) uint8 { return p.tr.Classes[p.id(i)] }
