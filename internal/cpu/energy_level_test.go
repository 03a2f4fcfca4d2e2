package cpu

import (
	"math"
	"math/rand"
	"testing"

	"retail/internal/sim"
)

// TestEnergyByLevelReconciles drives a socket through a random
// busy/idle/DVFS schedule and pins the ledger invariant: the per-level
// split plus the uncore share accounts for every joule EnergyJoules
// reports — before and after a mid-run ResetEnergy.
func TestEnergyByLevelReconciles(t *testing.T) {
	g := DefaultGrid()
	s := NewSocket(3, g, DefaultPowerModel(g), DefaultTransitionModel(), 99)
	e := sim.NewEngine()
	rng := rand.New(rand.NewSource(4))

	check := func(now sim.Time, stage string) {
		t.Helper()
		byLevel := s.EnergyByLevel(now)
		if len(byLevel) != g.Levels() {
			t.Fatalf("%s: per-level slice has %d entries, want %d", stage, len(byLevel), g.Levels())
		}
		var sum float64
		for _, j := range byLevel {
			if j < 0 {
				t.Fatalf("%s: negative per-level energy %v", stage, byLevel)
			}
			sum += j
		}
		total := s.EnergyJoules(now)
		if want := sum + s.UncoreJoules(now); math.Abs(total-want) > 1e-9*math.Max(1, total) {
			t.Fatalf("%s: EnergyJoules = %v but Σlevels+uncore = %v", stage, total, want)
		}
	}

	var now sim.Time
	for i := 0; i < 200; i++ {
		now += sim.Duration(rng.Float64()) * sim.Millisecond
		e.Run(now)
		c := s.Cores[rng.Intn(len(s.Cores))]
		switch rng.Intn(3) {
		case 0:
			c.SetBusy(e, !c.busy)
		case 1:
			c.SetLevel(e, Level(rng.Intn(g.Levels())))
		case 2:
			c.SetLevelImmediate(e, Level(rng.Intn(g.Levels())))
		}
	}
	check(now, "pre-reset")

	s.ResetEnergy(now)
	if got := s.EnergyByLevel(now); got != nil {
		for _, j := range got {
			if j != 0 {
				t.Fatalf("ResetEnergy left per-level energy %v", got)
			}
		}
	}
	for i := 0; i < 200; i++ {
		now += sim.Duration(rng.Float64()) * sim.Millisecond
		e.Run(now)
		c := s.Cores[rng.Intn(len(s.Cores))]
		if rng.Intn(2) == 0 {
			c.SetBusy(e, !c.busy)
		} else {
			c.SetLevel(e, Level(rng.Intn(g.Levels())))
		}
	}
	check(now, "post-reset")
}
