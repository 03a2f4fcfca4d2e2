package cluster

import (
	"math/rand"
	"testing"

	"retail/internal/core"
	"retail/internal/sim"
	"retail/internal/workload"
)

func TestAllocateBudgetsProportional(t *testing.T) {
	qos := workload.QoS{Latency: 20e-3, Percentile: 99}
	tiers := []*Tier{
		{App: workload.NewXapian(), Workers: 4}, // p95 svc ≈ 3.9ms
		{App: workload.NewSilo(), Workers: 4},   // p95 svc ≈ 0.33ms
	}
	profiled, err := AllocateBudgets(qos, tiers, 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiled) != len(tiers) {
		t.Fatalf("profiled %d tails for %d tiers", len(profiled), len(tiers))
	}
	if profiled[0] <= profiled[1] {
		t.Fatalf("xapian profiled tail %v not above silo's %v", profiled[0], profiled[1])
	}
	if tiers[0].Budget <= tiers[1].Budget {
		t.Fatalf("slow tier got smaller budget: %v vs %v", tiers[0].Budget, tiers[1].Budget)
	}
	sum := tiers[0].Budget + tiers[1].Budget
	want := sim.Duration(0.9 * float64(qos.Latency))
	if sum < want*0.99 || sum > want*1.01 {
		t.Fatalf("budget sum %v, want ≈%v", sum, want)
	}
}

func TestAllocateBudgetsValidation(t *testing.T) {
	qos := workload.QoS{Latency: 20e-3, Percentile: 99}
	if _, err := AllocateBudgets(qos, nil, 0.1, 0, 1); err == nil {
		t.Fatal("no tiers accepted")
	}
	tiers := []*Tier{{App: workload.NewXapian(), Workers: 2}}
	if _, err := AllocateBudgets(qos, tiers, 1.5, 0, 1); err == nil {
		t.Fatal("margin ≥ 1 accepted")
	}
	// An infeasible end-to-end target (tighter than a tier's own p95
	// service) must be rejected, not silently violated.
	tight := workload.QoS{Latency: 2e-3, Percentile: 99}
	if _, err := AllocateBudgets(tight, []*Tier{{App: workload.NewXapian(), Workers: 2}}, 0.1, 0, 1); err == nil {
		t.Fatal("infeasible end-to-end QoS accepted")
	}
}

// TestAllocateBudgetsSampleCount pins the satellite contract: samples <= 0
// selects the historical 2000-draw profile (bit-identical tails), and an
// explicit sample count actually changes the profiling draw.
func TestAllocateBudgetsSampleCount(t *testing.T) {
	qos := workload.QoS{Latency: 20e-3, Percentile: 99}
	mk := func() []*Tier {
		return []*Tier{
			{App: workload.NewXapian(), Workers: 4},
			{App: workload.NewSilo(), Workers: 4},
		}
	}
	def, err := AllocateBudgets(qos, mk(), 0.1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := AllocateBudgets(qos, mk(), 0.1, DefaultBudgetSamples, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range def {
		if def[i] != explicit[i] {
			t.Fatalf("tier %d: default-sample tail %v != explicit 2000-sample tail %v", i, def[i], explicit[i])
		}
	}
	small, err := AllocateBudgets(qos, mk(), 0.1, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for i := range def {
		if small[i] != def[i] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("a 50-sample profile produced the same tails as the 2000-sample one; the parameter is not wired through")
	}
}

// TestPipelineSubmitHonorsCallerRequest pins the fixed Submit contract:
// the request handed in by the caller (the load generator) is the one the
// front tier executes — not a silently regenerated stand-in — and a nil
// request still draws from the front tier's app.
func TestPipelineSubmitHonorsCallerRequest(t *testing.T) {
	qos := workload.QoS{Latency: 20e-3, Percentile: 99}
	tiers := []*Tier{{App: workload.NewXapian(), Workers: 2}}
	if _, err := AllocateBudgets(qos, tiers, 0.1, 0, 1); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	pipe, err := NewPipeline(e, qos, tiers, core.DefaultPlatform(), 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	var executed []*workload.Request
	inner := tiers[0].srv.CompletedSink
	tiers[0].srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
		executed = append(executed, r)
		inner(en, r)
	}
	rng := rand.New(rand.NewSource(9))
	var submitted []*workload.Request
	for i := 0; i < 5; i++ {
		r := tiers[0].App.Generate(rng)
		r.Gen = e.Now()
		submitted = append(submitted, r)
		pipe.Submit(e, r)
	}
	pipe.Submit(e, nil) // the nil path must still work
	e.Run(5)            // bounded horizon: the manager keeps periodic events alive
	if pipe.Completed() != 6 {
		t.Fatalf("completed %d of 6", pipe.Completed())
	}
	if len(executed) != 6 {
		t.Fatalf("front tier executed %d requests, want 6", len(executed))
	}
	ran := map[*workload.Request]bool{}
	for _, r := range executed {
		ran[r] = true
	}
	for i, want := range submitted {
		if !ran[want] {
			t.Fatalf("front tier never executed the caller's request %d (a stand-in ran instead)", i)
		}
	}
	// IDs are rewritten onto the pipeline's own sequence, in submit order.
	for i, r := range submitted {
		if r.ID != uint64(i) {
			t.Fatalf("submitted request %d carries pipeline ID %d", i, r.ID)
		}
	}
}

func TestPipelineRequiresBudgets(t *testing.T) {
	e := sim.NewEngine()
	tiers := []*Tier{{App: workload.NewSilo(), Workers: 2}}
	platform := core.DefaultPlatform().WithWorkers(2)
	if _, err := NewPipeline(e, workload.QoS{Latency: 5e-3, Percentile: 99}, tiers, platform, 100, 1); err == nil {
		t.Fatal("pipeline built without budgets")
	}
}

// End-to-end two-tier run: xapian front-end + silo back-end under one
// end-to-end p99 target, each tier power-managed by its own ReTail
// against its allocated budget.
func TestTwoTierPipelineMeetsEndToEndQoS(t *testing.T) {
	qos := workload.QoS{Latency: 20e-3, Percentile: 99}
	tiers := []*Tier{
		{App: workload.NewXapian(), Workers: 4},
		{App: workload.NewSilo(), Workers: 4},
	}
	if _, err := AllocateBudgets(qos, tiers, 0.1, 0, 1); err != nil {
		t.Fatal(err)
	}
	e := sim.NewEngine()
	platform := core.DefaultPlatform()
	pipe, err := NewPipeline(e, qos, tiers, platform, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Load at roughly half the front tier's standalone capacity.
	rps := core.CalibrateMaxLoad(tiers[0].App, platform.WithWorkers(tiers[0].Workers), 1) * 0.5
	gen := workload.NewGenerator(tiers[0].App, rps, 7, pipe.Submit)
	gen.Start(e)
	e.At(1, "measure", func(en *sim.Engine) { pipe.ResetEnergy(en) })
	e.Run(8)
	gen.Stop()

	if pipe.Completed() < int(0.8*rps*7) {
		t.Fatalf("completed %d end-to-end of ~%d", pipe.Completed(), int(rps*7))
	}
	tail, ok := pipe.TailLatency()
	if !ok {
		t.Fatal("no tail")
	}
	if !pipe.QoSMet() {
		t.Fatalf("end-to-end p99 = %v exceeds %v", sim.Time(tail), qos.Latency)
	}
	// Each tier actually downclocked: mean effective level below max on
	// at least one tier (light load on both).
	belowMax := false
	for _, tier := range pipe.Tiers {
		for _, c := range tier.srv.Socket.Cores {
			if c.EffectiveLevel() < c.Grid().MaxLevel() {
				belowMax = true
			}
		}
	}
	if !belowMax {
		t.Fatal("no tier ever left max frequency")
	}
	if pipe.PowerW(e.Now()) <= 0 {
		t.Fatal("no power accounted")
	}
}
