package manager

import (
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// EETL is the progress-based classification baseline from the paper's
// related work (§II): every request starts at a low frequency; a request
// that is still running when it crosses a predetermined execution-time
// threshold is flagged as "long" and boosted. The paper's criticism —
// reproduced here — is that by the time a request reaches the threshold
// it may be too late to prevent tail-latency degradation, because the
// time already spent at low frequency cannot be recovered.
//
// The slow level and threshold are policy.EETL's; this adapter applies
// them through the simulator's hooks and schedules the boost as an event.
type EETL struct {
	server.NoopHooks
	pol    *policy.EETL
	boosts int
}

// NewEETL builds the manager around the policy value policy.New built.
func NewEETL(pol *policy.EETL) *EETL { return &EETL{pol: pol} }

func (m *EETL) Name() string { return "eetl" }

// Boosts returns how many threshold crossings fired.
func (m *EETL) Boosts() int { return m.boosts }

// Attach implements Manager.
func (m *EETL) Attach(e *sim.Engine, s *server.Server) { s.Hooks = m }

// Start implements server.Hooks: run slow, arm the threshold timer.
func (m *EETL) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	slow := m.pol.Slow()
	w.Core().SetLevel(e, slow)
	delay, boost, ok := m.pol.Boost(slow, 0)
	if !ok {
		return
	}
	// Pointer AND ID: request nodes may be pooled, so the same pointer can
	// later host a different request (IDs are never reused).
	req, id := r, r.ID
	e.After(sim.Duration(delay), "eetl.threshold", func(en *sim.Engine) {
		if cur := w.Current(); cur == req && cur.ID == id {
			m.boosts++
			w.Core().SetLevel(en, boost)
		}
	})
}
