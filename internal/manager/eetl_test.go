package manager

import (
	"testing"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/workload"
)

func TestEETLBoostsLongRequests(t *testing.T) {
	app := varApp{base: 1e-3, slope: 1e-3, spread: 20, qos: workload.QoS{Latency: 60e-3, Percentile: 99}}
	svc, _ := profileOf(app, 2000, 9)
	rig := newRig(t, app, 1)
	pol := simPolicy("eetl", app.QoS(), rig.grid, svc).(*policy.EETL)
	m := NewEETL(pol)
	m.Attach(rig.e, rig.srv)
	if thr, _, _ := pol.Boost(pol.Slow(), 0); thr <= 0 {
		t.Fatal("no threshold derived")
	}
	// A short request finishes below the threshold: never boosted.
	rig.e.At(0, "short", func(*sim.Engine) { rig.submit(0) })
	rig.e.Run(0.1)
	if m.Boosts() != 0 {
		t.Fatalf("short request boosted (%d)", m.Boosts())
	}
	// A long request crosses the threshold and gets boosted to max.
	rig.e.At(rig.e.Now()+0.01, "long", func(*sim.Engine) { rig.submit(19) })
	rig.e.Run(rig.e.Now() + 0.2)
	if m.Boosts() != 1 {
		t.Fatalf("long request not boosted (%d)", m.Boosts())
	}
	if got := rig.srv.Workers()[0].Core().EffectiveLevel(); got != rig.grid.MaxLevel() {
		t.Fatalf("post-boost level %d", got)
	}
}

func TestEETLTooLateForTail(t *testing.T) {
	// The paper's criticism: a long request under EETL finishes later than
	// under a feature-based manager that boosted from the start, because
	// its pre-threshold time ran slow.
	app := varApp{base: 1e-3, slope: 1e-3, spread: 20, qos: workload.QoS{Latency: 25e-3, Percentile: 99}}
	svc, _ := profileOf(app, 2000, 10)
	runLong := func(mk func(rig *testRig) Manager) sim.Duration {
		rig := newRig(t, app, 1)
		m := mk(rig)
		m.Attach(rig.e, rig.srv)
		var sojourn sim.Duration
		rig.srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) { sojourn = r.Sojourn() }
		rig.e.At(0, "long", func(*sim.Engine) { rig.submit(19) })
		rig.e.Run(0.3)
		return sojourn
	}
	eetl := runLong(func(rig *testRig) Manager {
		return NewEETL(simPolicy("eetl", app.QoS(), rig.grid, svc).(*policy.EETL))
	})
	retail := runLong(func(rig *testRig) Manager { return NewReTail(app.QoS(), rig.retailConfig()) })
	if eetl <= retail {
		t.Fatalf("EETL long-request sojourn %v ≤ ReTail %v — 'too late' property lost", eetl, retail)
	}
}

func TestEETLDefaults(t *testing.T) {
	g := cpu.DefaultGrid()
	if policy.EETLThreshold(nil, -1, g.MaxFreq(), g.Freq(g.MaxLevel()/2)) != 0 {
		t.Fatal("threshold from empty profile should be 0")
	}
	m := NewEETL(simPolicy("eetl", workload.QoS{Latency: 1, Percentile: 99}, g, []float64{1e-3}).(*policy.EETL))
	if m.Name() != "eetl" {
		t.Fatal("name")
	}
}
