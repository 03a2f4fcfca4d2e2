package colocate

import (
	"testing"

	"retail/internal/core"
	"retail/internal/sim"
	"retail/internal/workload"
)

func testNode(t *testing.T) (*Node, core.Platform) {
	t.Helper()
	platform := core.DefaultPlatform().WithWorkers(4)
	mk := func(name string, workers int, seed int64) *Tenant {
		app := workload.ByName(name)
		cal, err := core.Calibrate(app, platform.WithWorkers(workers), 300, 1)
		if err != nil {
			t.Fatal(err)
		}
		rps := core.CalibrateMaxLoad(app, platform.WithWorkers(workers), 1) * 0.4
		return &Tenant{Cal: cal, Workers: workers, RPS: rps, Seed: seed}
	}
	a := mk("moses", 2, 5)
	b := mk("silo", 2, 6)
	return NewNode([]*Tenant{a, b}, platform), platform
}

func TestNodeConstruction(t *testing.T) {
	node, platform := testNode(t)
	if len(node.Tenants) != 2 {
		t.Fatalf("tenants = %d", len(node.Tenants))
	}
	total := 0
	for _, tn := range node.Tenants {
		if tn.Server == nil || tn.Lat == nil {
			t.Fatal("tenant not wired")
		}
		total += len(tn.Server.Socket.Cores)
	}
	if total != platform.Workers {
		t.Fatalf("cores = %d, want %d", total, platform.Workers)
	}
}

func TestNodeTrafficAndPower(t *testing.T) {
	node, _ := testNode(t)
	e := sim.NewEngine()
	node.Start(e)
	e.At(0.5, "reset", func(en *sim.Engine) { node.ResetEnergy(en) })
	e.Run(3)
	for _, tn := range node.Tenants {
		tn.Gen.Stop()
		if tn.Lat.Count() == 0 {
			t.Fatalf("tenant %s served no requests", tn.Cal.App.Name())
		}
	}
	p := node.PowerW(e.Now())
	// 4 busy-ish cores plus uncore: more than uncore alone, less than an
	// absurd bound.
	if p < 18 || p > 80 {
		t.Fatalf("node power = %v W", p)
	}
}

func TestEnableReTailValidation(t *testing.T) {
	node, _ := testNode(t)
	e := sim.NewEngine()
	node.Start(e)
	if _, err := node.EnableReTail(e, -1); err == nil {
		t.Fatal("negative tenant accepted")
	}
	if _, err := node.EnableReTail(e, 99); err == nil {
		t.Fatal("out-of-range tenant accepted")
	}
	rt, err := node.EnableReTail(e, 0)
	if err != nil || rt == nil {
		t.Fatalf("EnableReTail: %v", err)
	}
}

func TestEnableReTailReducesPower(t *testing.T) {
	node, _ := testNode(t)
	e := sim.NewEngine()
	node.Start(e)
	var before, after float64
	e.At(1, "m0", func(en *sim.Engine) { node.ResetEnergy(en) })
	e.At(4, "switch", func(en *sim.Engine) {
		before = node.PowerW(en.Now())
		if _, err := node.EnableReTail(en, 0); err != nil {
			t.Error(err)
		}
		if _, err := node.EnableReTail(en, 1); err != nil {
			t.Error(err)
		}
		node.ResetEnergy(en)
	})
	e.Run(10)
	after = node.PowerW(e.Now())
	for _, tn := range node.Tenants {
		tn.Gen.Stop()
	}
	if after >= before {
		t.Fatalf("ReTail did not reduce node power: %v → %v", before, after)
	}
	// Both tenants still meet QoS.
	for _, tn := range node.Tenants {
		q := tn.Cal.App.QoS()
		// Only score post-switch completions: use the window tracker's
		// overall percentile as a conservative stand-in.
		if tail, ok := tn.Lat.Percentile(q.Percentile); ok && tail > float64(q.Latency)*1.05 {
			t.Errorf("%s: tail %v exceeds QoS %v", tn.Cal.App.Name(), tail, q.Latency)
		}
	}
}

func TestMeanLevel(t *testing.T) {
	node, _ := testNode(t)
	e := sim.NewEngine()
	srv := node.Tenants[0].Server
	// Cores boot at max level (11).
	if got := MeanLevel(srv); got != 11 {
		t.Fatalf("mean level = %v, want 11", got)
	}
	srv.Socket.Cores[0].SetLevelImmediate(e, 1)
	want := (1.0 + 11.0) / 2
	if got := MeanLevel(srv); got != want {
		t.Fatalf("mean level = %v, want %v", got, want)
	}
}
