package cluster

import (
	"strconv"
	"sync"
	"testing"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// fleetCal memoizes one small calibration for the whole test package:
// every fleet test shares the same read-only artifact, exactly as a real
// sweep shares one calibration across cells.
var (
	fleetCalOnce sync.Once
	fleetCalVal  *core.Calibration
	fleetCalErr  error
)

func testFleetCal(t testing.TB) *core.Calibration {
	t.Helper()
	fleetCalOnce.Do(func() {
		app := workload.NewXapian()
		platform := core.DefaultPlatform().WithWorkers(2)
		fleetCalVal, fleetCalErr = core.Calibrate(app, platform, 200, 1)
	})
	if fleetCalErr != nil {
		t.Fatal(fleetCalErr)
	}
	return fleetCalVal
}

// testFleetRPS sizes fleet load to a fraction of the fleet's rough
// capacity without paying for a CalibrateMaxLoad binary search.
func testFleetRPS(cal *core.Calibration, nodes, workers int, frac float64) float64 {
	mean := workload.MeanServiceAtMax(cal.App)
	return frac * float64(nodes*workers) / mean
}

func quickFleet(t testing.TB, dispatcher, pol string, seed int64) FleetConfig {
	cal := testFleetCal(t)
	const nodes, workers = 4, 2
	small := nn.TunedConfig(1, 2, 32, 30, 32)
	return FleetConfig{
		Cal:            cal,
		Nodes:          nodes,
		WorkersPerNode: workers,
		Policy:         pol,
		Dispatcher:     dispatcher,
		GeminiNN:       &small,
		RPS:            testFleetRPS(cal, nodes, workers, 0.35),
		Warmup:         1,
		Duration:       5,
		Seed:           seed,
	}
}

func TestRunFleetValidation(t *testing.T) {
	cal := testFleetCal(t)
	bad := []FleetConfig{
		{},
		{Cal: cal},
		{Cal: cal, Nodes: 2, WorkersPerNode: 2},
		{Cal: cal, Nodes: 2, WorkersPerNode: 2, RPS: 100, Duration: 1,
			Dispatcher: "no-such-rule", Policy: "retail"},
		{Cal: cal, Nodes: 2, WorkersPerNode: 2, RPS: 100, Duration: 1,
			Dispatcher: "round-robin", Policy: "no-such-policy"},
	}
	for i, cfg := range bad {
		if _, err := RunFleet(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// TestRunFleetDeterministic is the fleet half of the determinism
// contract: one config, two runs, identical placement stream and
// identical measurements.
func TestRunFleetDeterministic(t *testing.T) {
	a, err := RunFleet(quickFleet(t, "power-of-two", "retail", 11))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(quickFleet(t, "power-of-two", "retail", 11))
	if err != nil {
		t.Fatal(err)
	}
	if a.PlacementHash != b.PlacementHash || a.Routed != b.Routed {
		t.Fatalf("placement streams diverge: %x/%d vs %x/%d",
			a.PlacementHash, a.Routed, b.PlacementHash, b.Routed)
	}
	if a.Completed != b.Completed || a.P99 != b.P99 || a.EnergyJ != b.EnergyJ {
		t.Fatalf("measurements diverge: %+v vs %+v", a, b)
	}
	if a.Completed == 0 || a.Routed == 0 {
		t.Fatal("fleet did no work")
	}
}

// TestRunFleetDispatchersActuallyDiffer: the routing axis is real — the
// four rules produce four different placement streams under one load.
func TestRunFleetDispatchersActuallyDiffer(t *testing.T) {
	seen := map[uint64]string{}
	for _, d := range []string{"round-robin", "least-loaded", "power-of-two", "global-jsq"} {
		r, err := RunFleet(quickFleet(t, d, "retail", 11))
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[r.PlacementHash]; dup {
			t.Fatalf("%s and %s produced identical placement streams", d, prev)
		}
		seen[r.PlacementHash] = d
		if r.Completed == 0 {
			t.Fatalf("%s: no completions", d)
		}
	}
}

// TestRunFleetAllPoliciesRun: every per-node DVFS policy drives a fleet
// end to end and leaves max frequency at light load (gemini may shed but
// must still complete work).
func TestRunFleetAllPoliciesRun(t *testing.T) {
	for _, pol := range policy.Names() {
		r, err := RunFleet(quickFleet(t, "least-loaded", pol, 7))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if r.Completed == 0 {
			t.Fatalf("%s: no completions", pol)
		}
		if r.EnergyJ <= 0 || r.AvgPowerW <= 0 {
			t.Fatalf("%s: no energy accounted", pol)
		}
		if len(r.PerNode) != 4 {
			t.Fatalf("%s: %d node stats, want 4", pol, len(r.PerNode))
		}
	}
}

// TestRunFleetRoundRobinIsEven: round-robin's per-node completion spread
// is tight (CV near zero), and its placement hash matches the closed-form
// 0,1,2,…,n-1 cycle — the routing stream is exactly what the rule says.
func TestRunFleetRoundRobinIsEven(t *testing.T) {
	r, err := RunFleet(quickFleet(t, "round-robin", "retail", 3))
	if err != nil {
		t.Fatal(err)
	}
	if r.ImbalanceCV > 0.05 {
		t.Fatalf("round-robin imbalance CV %.3f, want ~0", r.ImbalanceCV)
	}
	h := uint64(fnvOffset)
	for i := 0; i < r.Routed; i++ {
		h = hashPlacement(h, i%r.Nodes)
	}
	if h != r.PlacementHash {
		t.Fatalf("round-robin placement hash %x does not match the cycle %x", r.PlacementHash, h)
	}
}

// TestRunFleetTelemetryPerNode: with a registry attached, per-node series
// appear under the existing metric families and their sum equals the
// fleet counter. Note telemetry counts the whole run (it attaches at
// construction), so compare against completed-over-the-whole-run.
func TestRunFleetTelemetryPerNode(t *testing.T) {
	reg := telemetry.NewRegistry()
	cfg := quickFleet(t, "global-jsq", "retail", 5)
	cfg.Registry = reg
	cfg.Labels = []telemetry.Label{telemetry.L("dispatcher", "global-jsq")}
	r, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for i := 0; i < cfg.Nodes; i++ {
		c := reg.Counter(telemetry.MetricRequestsTotal, "",
			telemetry.L("app", r.App),
			telemetry.L("dispatcher", "global-jsq"),
			telemetry.L("node", strconv.Itoa(i)))
		if c.Value() == 0 {
			t.Fatalf("node %d series missing or empty", i)
		}
		sum += c.Value()
	}
	if int(sum) < r.Completed {
		t.Fatalf("telemetry total %d below measured completions %d", int(sum), r.Completed)
	}
}

// TestRunFleetAccounting: a least-loaded fleet run accounts for every
// request — no more completions than routed requests, a measured tail with
// p50 ≤ p99, no negative residency, and per-node completions summing to
// the fleet's.
func TestRunFleetAccounting(t *testing.T) {
	r, err := RunFleet(quickFleet(t, "least-loaded", "retail", 9))
	if err != nil {
		t.Fatal(err)
	}
	if r.Routed < r.Completed {
		t.Fatalf("routed %d < completed %d", r.Routed, r.Completed)
	}
	if r.TailAtQoSPct <= 0 {
		t.Fatal("no tail measured")
	}
	if r.P50 > r.P99 {
		t.Fatalf("p50 %v above p99 %v", r.P50, r.P99)
	}
	total := 0
	for _, n := range r.PerNode {
		total += n.Completed
		for _, c := range n.Residency {
			if c < 0 {
				t.Fatal("negative residency")
			}
		}
	}
	if total != r.Completed {
		t.Fatalf("per-node completions %d != fleet %d", total, r.Completed)
	}
}

// smallFleet is BenchmarkClusterFleet's fleet: 4 retail nodes × 2
// workers behind power-of-two at 35% load, measured for duration seconds
// of virtual time.
func smallFleet(cal *core.Calibration, duration sim.Duration) FleetConfig {
	return FleetConfig{
		Cal: cal, Nodes: 4, WorkersPerNode: 2,
		Policy: "retail", Dispatcher: "power-of-two",
		RPS: testFleetRPS(cal, 4, 2, 0.35), Warmup: 0.5, Duration: duration, Seed: 1,
	}
}

// BenchmarkClusterFleet drives one small fleet run end to end; make
// bench-check runs it once under the race detector.
func BenchmarkClusterFleet(b *testing.B) {
	cal := testFleetCal(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFleet(smallFleet(cal, 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunFleetAllocsPerRequest holds the fleet's steady state to almost no
// heap allocation per request, with no baseline file: the small fleet run
// for 8 s may allocate fewer than 0.05 objects per extra completion more
// than the same fleet run for 2 s. Setup (calibration copies, nodes,
// managers, pools) costs the same at both horizons and cancels, so the
// bound is the same on every host, and one allocation per completed
// request anywhere on the request path exceeds it twentyfold.
func TestRunFleetAllocsPerRequest(t *testing.T) {
	cal := testFleetCal(t)
	run := func(duration sim.Duration) (allocs float64, completed int) {
		allocs = testing.AllocsPerRun(1, func() {
			res, err := RunFleet(smallFleet(cal, duration))
			if err != nil {
				t.Fatal(err)
			}
			completed = res.Completed
		})
		return allocs, completed
	}
	shortAllocs, shortDone := run(2)
	longAllocs, longDone := run(8)
	extra := longDone - shortDone
	if extra <= 0 {
		t.Fatalf("8 s run completed %d requests, 2 s run %d", longDone, shortDone)
	}
	perReq := (longAllocs - shortAllocs) / float64(extra)
	t.Logf("2 s: %.0f allocs / %d completed; 8 s: %.0f allocs / %d completed; %.4f allocs per extra request",
		shortAllocs, shortDone, longAllocs, longDone, perReq)
	if perReq >= 0.05 {
		t.Fatalf("%.4f allocations per extra completed request, want < 0.05", perReq)
	}
}
