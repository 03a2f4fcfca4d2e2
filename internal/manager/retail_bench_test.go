package manager

import (
	"testing"

	"retail/internal/sim"
	"retail/internal/workload"
)

// benchDecideRig builds a single-worker server with a running head request
// and several queued requests, the state Algorithm 1 sees on every Arrival
// re-examination — the hottest call in a full sweep. The optional tweak
// adjusts the manager configuration before construction.
func benchDecideRig(tb testing.TB, queued int, tweak func(*ReTail)) (*testRig, *ReTail) {
	tb.Helper()
	app := varApp{base: 10e-3, slope: 1e-3, spread: 20, qos: workload.QoS{Latency: 60e-3, Percentile: 99}}
	rig := newRig(tb, app, 1)
	m := NewReTail(app.QoS(), rig.retailConfig())
	if tweak != nil {
		tweak(m)
	}
	m.Attach(rig.e, rig.srv)
	rig.e.At(0, "sub", func(*sim.Engine) {
		for i := 0; i <= queued; i++ {
			rig.submit(float64(i % rig.app.spread))
		}
	})
	// Advance just far enough that the head is executing and the queue is
	// populated, but nothing has completed.
	rig.e.Run(1e-4)
	if rig.srv.Workers()[0].Current() == nil {
		tb.Fatal("no head request")
	}
	return rig, m
}

// BenchmarkRetailDecide measures Algorithm 1 (targetLevel) over warm
// prediction slots — nine requests, each with its own — the steady state
// when the same pipeline is re-examined on every arrival/ready event.
func BenchmarkRetailDecide(b *testing.B) {
	rig, m := benchDecideRig(b, 8, nil)
	w := rig.srv.Workers()[0]
	head := w.Current()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.targetLevel(rig.e, w, head, 0.25, nil)
	}
}

// BenchmarkRetailDecideColdMemo invalidates the prediction slots every
// iteration (as a retrain would), so each decision rebuilds features and
// re-runs the model: the worst case for the decision path.
func BenchmarkRetailDecideColdMemo(b *testing.B) {
	rig, m := benchDecideRig(b, 8, nil)
	w := rig.srv.Workers()[0]
	head := w.Current()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.modelGen++ // stale every prediction slot, as a live retrain does
		m.targetLevel(rig.e, w, head, 0.25, nil)
	}
}

// decideStepper builds a rig whose full decide path — Algorithm 1, the
// counters and the pooled deferred SetLevel — can be driven repeatedly
// without the head completing: inference cost is shrunk to a femtosecond
// so each iteration's engine step (1 ns) fires only the frequency write,
// recycling the freqApply pool and the engine's event freelist.
func decideStepper(tb testing.TB) func() {
	rig, m := benchDecideRig(tb, 8, func(m *ReTail) {
		m.inferenceCost = 1e-15
	})
	w := rig.srv.Workers()[0]
	head := w.Current()
	return func() {
		m.decide(rig.e, w, head, 0.25, nil)
		rig.e.Run(rig.e.Now() + 1e-9)
	}
}

// TestRetailDecideZeroAlloc pins the observability acceptance criterion:
// with tracing off (nil DecisionSink) the complete decision path allocates
// nothing in steady state, so attaching the tracing plumbing costs idle
// runs nothing.
func TestRetailDecideZeroAlloc(t *testing.T) {
	step := decideStepper(t)
	for i := 0; i < 64; i++ {
		step() // warm the slots, the freqApply pool and the event freelist
	}
	if avg := testing.AllocsPerRun(200, step); avg != 0 {
		t.Fatalf("decide with nil DecisionSink allocates %v allocs/op, want 0", avg)
	}
}

// BenchmarkRetailDecideFull measures the complete decide path (Algorithm 1
// + deferred SetLevel dispatch) on the untraced hot path; make bench-check
// runs it once under the race detector.
func BenchmarkRetailDecideFull(b *testing.B) {
	step := decideStepper(b)
	for i := 0; i < 64; i++ {
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
