package server

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// variableApp yields exponentially distributed service times so the
// sojourn histogram has a real tail to estimate.
type variableApp struct{ fixedApp }

func (v variableApp) Generate(rng *rand.Rand) *workload.Request {
	svc := sim.Duration(0.5+rng.ExpFloat64()) * sim.Millisecond
	return &workload.Request{App: "var", Features: []float64{1}, ServiceBase: svc, ComputeFrac: 0.8}
}

// TestTelemetryHooksMatchLatencyTracker is the sim-side acceptance demo:
// a simulated load run records through the telemetry observer and the
// histogram p95 must agree with stats.LatencyTracker's exact p95 within
// one bucket width.
func TestTelemetryHooksMatchLatencyTracker(t *testing.T) {
	app := variableApp{fixedApp{service: sim.Millisecond, cf: 0.8}}
	s := newServer(t, app, 4, nil)
	reg := telemetry.NewRegistry()
	AttachTelemetry(s, reg, "var", app.QoS())

	e := sim.NewEngine()
	tracker := stats.NewLatencyTracker(0, true)
	svcTracker := stats.NewLatencyTracker(0, true)
	s.CompletedSink = func(_ *sim.Engine, r *workload.Request) {
		tracker.Add(float64(r.Sojourn()))
		svcTracker.Add(float64(r.ServiceTime()))
	}
	rps := 0.7 * 4 / 1.5e-3 // ~70% utilization on 4 workers
	gen := workload.NewGenerator(app, rps, 11, s.Submit)
	gen.Start(e)
	e.Run(5)
	gen.Stop()
	e.RunAll()

	if tracker.Count() < 1000 {
		t.Fatalf("only %d completions; load generator misconfigured", tracker.Count())
	}

	soj := reg.Histogram(telemetry.MetricSojournSeconds, "", telemetry.L("app", "var"))
	sojSnap := soj.Snapshot()
	if got, want := sojSnap.Count, uint64(tracker.Count()); got != want {
		t.Fatalf("histogram count %d != tracker count %d", got, want)
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		exact, _ := tracker.Percentile(q * 100)
		got := sojSnap.Quantile(q)
		if tol := bucketWidth(exact); math.Abs(got-exact) > tol {
			t.Errorf("sojourn q%g: histogram %.6g vs exact %.6g (tol %.3g)", q, got, exact, tol)
		}
	}
	svc := reg.Histogram(telemetry.MetricServiceSeconds, "", telemetry.L("app", "var"))
	exact, _ := svcTracker.Percentile(95)
	if got := svc.Snapshot().Quantile(0.95); math.Abs(got-exact) > bucketWidth(exact) {
		t.Errorf("service p95: histogram %.6g vs exact %.6g", got, exact)
	}

	// Completion counter and per-level residency must both equal the
	// server's own count.
	completed := reg.Counter(telemetry.MetricRequestsTotal, "", telemetry.L("app", "var"))
	if got := completed.Value(); got != uint64(s.Completed()) {
		t.Fatalf("requests_total %d != completed %d", got, s.Completed())
	}
	grid := s.Socket.Cores[0].Grid()
	var residency uint64
	for lvl := 0; lvl < grid.Levels(); lvl++ {
		residency += reg.Counter(telemetry.MetricFreqResidency, "",
			telemetry.L("app", "var"), telemetry.L("level", strconv.Itoa(lvl))).Value()
	}
	if residency != uint64(s.Completed()) {
		t.Fatalf("residency total %d != completed %d", residency, s.Completed())
	}

	// Queue drained → depth gauge back to zero.
	if depth := reg.Gauge(telemetry.MetricQueueDepth, "", telemetry.L("app", "var")); depth.Value() != 0 {
		t.Fatalf("queue depth gauge = %v after drain", depth.Value())
	}

	// The exposition must carry non-empty sojourn buckets for scraping.
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), telemetry.MetricSojournSeconds+"_bucket") {
		t.Fatal("exposition missing sojourn buckets")
	}
}

func TestTelemetryHooksCountDrops(t *testing.T) {
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	s.Hooks = dropAllHooks{}
	reg := telemetry.NewRegistry()
	AttachTelemetry(s, reg, "fixed", app.QoS())
	e := sim.NewEngine()
	for i := 0; i < 5; i++ {
		r := mkReq(10*sim.Millisecond, 1)
		e.At(0, "submit", func(en *sim.Engine) { s.Submit(en, r) })
	}
	e.RunAll()
	dropped := reg.Counter(telemetry.MetricDroppedTotal, "", telemetry.L("app", "fixed"))
	if got := dropped.Value(); got != 5 {
		t.Fatalf("dropped counter = %d, want 5", got)
	}
	if got := reg.Counter(telemetry.MetricRequestsTotal, "", telemetry.L("app", "fixed")).Value(); got != 0 {
		t.Fatalf("requests_total = %d, want 0", got)
	}
}

func TestTelemetrySlackAndViolations(t *testing.T) {
	// QoS 15ms, two back-to-back 10ms requests on one worker: the first
	// completes with 5ms slack, the second at 20ms sojourn → violation.
	app := fixedApp{service: 10 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, nil)
	reg := telemetry.NewRegistry()
	qos := workload.QoS{Latency: 15 * sim.Millisecond, Percentile: 99}
	AttachTelemetry(s, reg, "fixed", qos)
	e := sim.NewEngine()
	for i := 0; i < 2; i++ {
		r := mkReq(10*sim.Millisecond, 1)
		e.At(0, "submit", func(en *sim.Engine) { r.Gen = en.Now(); s.Submit(en, r) })
	}
	e.RunAll()
	if got := reg.Counter(telemetry.MetricViolationsTotal, "", telemetry.L("app", "fixed")).Value(); got != 1 {
		t.Fatalf("violations = %d, want 1", got)
	}
	slack := reg.Histogram(telemetry.MetricSlackSeconds, "", telemetry.L("app", "fixed"))
	slackSnap := slack.Snapshot()
	if got := slackSnap.Count; got != 2 {
		t.Fatalf("slack observations = %d, want 2", got)
	}
	// Sum of slack ≈ 5ms (5ms from the first, 0 from the violation).
	if got := slackSnap.Sum; math.Abs(got-5e-3) > 1e-6 {
		t.Fatalf("slack sum = %v, want ≈5ms", got)
	}
}

// bucketWidth is the width (seconds) of the telemetry histogram bucket
// holding v: the log-linear layout with 2^5 sub-buckets per octave of
// nanoseconds.
func bucketWidth(v float64) float64 {
	lo, hi := stats.LogLinearBounds(stats.LogLinearIndex(uint64(v*1e9), 5), 5)
	return float64(hi-lo) / 1e9
}
