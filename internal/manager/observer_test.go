package manager

import (
	"testing"

	"retail/internal/cpu"
	"retail/internal/server"
)

// topLevelCounter predicts every request far past any budget and counts
// the predictions asked at the grid's top level. Algorithm 1 never
// consults the top level — it is the fallback when every lower level
// fails — so under this model only a decision's attribution read (the
// head's predicted service at the chosen level) asks there.
type topLevelCounter struct {
	top cpu.Level
	n   int
}

func (p *topLevelCounter) Predict(lvl cpu.Level, _ []float64) float64 {
	if lvl == p.top {
		p.n++
	}
	return 1e3
}

// decisionTap is an observer that takes decisions.
type decisionTap struct {
	server.NoopObserver
	n int
}

func (d *decisionTap) RecordDecision(server.Decision) { d.n++ }

// GIVEN a ReTail whose model misses QoS at every level, so Algorithm 1
// falls back to the top level without consulting it, WHEN it decides
// for a nine-deep pipeline with no decision sink on its server, THEN the
// model is never asked about the top level: the attribution read does
// not run. With a sink registered it runs once per decision, and the
// sink receives that decision.
func TestGivenReTailWithNoDecisionSink_WhenItDecides_ThenTheAttributionReadNeverRuns(t *testing.T) {
	for _, tc := range []struct {
		watched          bool
		reads, decisions int // the head's slot answers every read after the first
	}{{false, 0, 0}, {true, 1, 3}} {
		rig, m := benchDecideRig(t, 8, nil)
		model := &topLevelCounter{top: rig.srv.Socket.Cores[0].Grid().MaxLevel()}
		m.SetModel(model)
		tap := &decisionTap{}
		if tc.watched {
			rig.srv.Observe(tap)
		}
		w := rig.srv.Workers()[0]
		for i := 0; i < 3; i++ {
			m.decide(rig.e, w, w.Current(), 0.25, nil)
		}
		if model.n != tc.reads || tap.n != tc.decisions {
			t.Fatalf("watched=%t: %d top-level predictions, %d decisions recorded; want %d and %d",
				tc.watched, model.n, tap.n, tc.reads, tc.decisions)
		}
	}
}
