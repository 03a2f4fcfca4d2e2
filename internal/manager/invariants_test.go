package manager

import (
	"math/rand"
	"testing"
	"testing/quick"

	"retail/internal/cpu"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Property: across random load patterns and interference events, QoS′
// stays within [2% of QoS, QoSPrimeCap × QoS], Algorithm 1 always returns
// a valid level, and the manager never deadlocks the server (every
// submitted request completes once traffic stops).
func TestReTailInvariantsUnderChaos(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		app := varApp{
			base:   (1 + rng.Float64()*5) * 1e-3,
			slope:  rng.Float64() * 1e-3,
			spread: 1 + rng.Intn(20),
			cf:     0.5 + rng.Float64()*0.5,
			qos:    workload.QoS{Latency: sim.Duration((20 + rng.Float64()*40) * 1e-3), Percentile: 99},
		}
		rig := newRig(t, app, 1+rng.Intn(3))
		m := NewReTail(app.QoS(), rig.retailConfig())
		m.Attach(rig.e, rig.srv)

		submitted := 0
		gen := workload.NewGenerator(app, (0.2+rng.Float64()*0.6)*float64(len(rig.srv.Workers()))/(app.base+app.slope*float64(app.spread)/2), seed, func(e *sim.Engine, r *workload.Request) {
			submitted++
			rig.srv.Submit(e, r)
		})
		gen.Start(rig.e)
		// Random interference steps.
		for i := 0; i < 3; i++ {
			at := sim.Time(rng.Float64() * 3)
			f := 0.8 + rng.Float64()
			rig.e.At(at, "chaos", func(en *sim.Engine) { rig.srv.SetInterference(en, f) })
		}
		// Sample QoS′ bounds during the run.
		ok := true
		lo := sim.Duration(0.02 * float64(app.qos.Latency))
		hi := sim.Duration(1.1*float64(app.qos.Latency)) + 1e-12
		for ts := 0.5; ts < 4; ts += 0.25 {
			rig.e.At(sim.Time(ts), "check", func(*sim.Engine) {
				if m.QoSPrime() < lo || m.QoSPrime() > hi {
					ok = false
				}
			})
		}
		rig.e.Run(4)
		gen.Stop()
		rig.e.Run(8) // drain
		return ok && rig.srv.Completed() == submitted && rig.srv.QueuedTotal() == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// Property: for a running head and a real queue of requests, each with its
// own features, Algorithm 1's chosen level is minimal — it is the lowest
// level under which every member, predicted from its own features, meets
// QoS′ after everything ahead of it drains, and the maximum when none is.
// The QoS is tight enough that the draws span several levels.
func TestAlgorithmOneMinimality(t *testing.T) {
	app := varApp{base: 3e-3, slope: 1e-3, spread: 15, qos: workload.QoS{Latency: 25e-3, Percentile: 99}}
	rig := newRig(t, app, 1)
	answers := map[cpu.Level]int{}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rig.reset(1)
		m := NewReTail(app.QoS(), rig.retailConfig())
		m.Attach(rig.e, rig.srv)
		pipe := make([]*workload.Request, 1+rng.Intn(4))
		for i := range pipe {
			pipe[i] = rig.submit(float64(rng.Intn(app.spread)))
		}
		w := rig.srv.Workers()[0]
		if w.Current() != pipe[0] || len(w.Queue()) != len(pipe)-1 {
			t.Fatal("the rig did not install the pipeline")
		}
		now, budget := float64(rig.e.Now()), float64(m.QoSPrime())
		feasible := func(lvl cpu.Level) bool {
			sum := 0.0
			for _, r := range pipe {
				s := m.model.Predict(lvl, r.Features)
				if now-float64(r.Gen)+sum+s > budget {
					return false
				}
				sum += s
			}
			return true
		}
		want := rig.grid.MaxLevel()
		for lvl := cpu.Level(0); lvl < rig.grid.MaxLevel(); lvl++ {
			if feasible(lvl) {
				want = lvl
				break
			}
		}
		got := m.targetLevel(rig.e, w, pipe[0], 0, nil)
		answers[got]++
		return got == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if len(answers) < 3 {
		t.Fatalf("the draws answered only %v (level: count); the property checks too little", answers)
	}
}
