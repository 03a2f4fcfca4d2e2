package policy

import (
	"testing"
)

func testMonitor() *Monitor {
	return NewMonitor(MonitorConfig{Target: 0.010, Percentile: 99})
}

// feed pushes n samples of the given sojourn at evenly spaced times in
// [from, to) and returns the monitor for chaining.
func feed(m *Monitor, from, to Time, n int, sojourn float64) {
	for i := 0; i < n; i++ {
		at := from + (to-from)*float64(i)/float64(n)
		m.Observe(at, sojourn)
	}
}

// TestMonitorDefaults pins the paper constants the zero config selects.
func TestMonitorDefaults(t *testing.T) {
	m := testMonitor()
	c := m.cfg
	if c.Interval != 0.1 || c.StepFrac != 0.05 || c.RelaxBelow != 0.9 ||
		c.Cap != 1.0 || c.Span != 0.5 || c.MinKeep != 60 ||
		c.MaxWindow != 8192 || c.MinSamples != 20 || c.Alpha != 0.35 {
		t.Fatalf("defaults = %+v", c)
	}
	// The guard band and correction band were hardcoded as 0.96/0.06
	// before they became config fields; the zero config must keep
	// selecting exactly those values or every sim and live golden shifts.
	if c.GuardBand != 0.96 || c.CorrectionBand != 0.06 {
		t.Fatalf("guard band defaults = %v/%v, want 0.96/0.06", c.GuardBand, c.CorrectionBand)
	}
	if m.QoSPrime() != 0.010 {
		t.Fatalf("initial QoS' = %v, want the target", m.QoSPrime())
	}
}

// TestMonitorGuardBandConfigurable: raising the guard band past the
// measured tail suppresses the cut the default band would have made.
func TestMonitorGuardBandConfigurable(t *testing.T) {
	wide := NewMonitor(MonitorConfig{Target: 0.010, Percentile: 99, GuardBand: 1.5, CorrectionBand: 0.5})
	feed(wide, 0, 0.1, 30, 0.012) // 20% past target: inside a 1.5 band
	wide.Tick(0.1)
	if wide.QoSPrime() != 0.010 {
		t.Fatalf("QoS' = %v, want untouched under a 1.5 guard band", wide.QoSPrime())
	}
}

// TestMonitorTightensOnViolation: a measured tail past the guard band
// cuts QoS′.
func TestMonitorTightensOnViolation(t *testing.T) {
	m := testMonitor()
	feed(m, 0, 0.1, 30, 0.012) // 20% past target
	m.Tick(0.1)
	if m.QoSPrime() >= 0.010 {
		t.Fatalf("QoS' = %v, want below target after violations", m.QoSPrime())
	}
}

// TestMonitorRelaxesWhenComfortable: a tail under RelaxBelow×target
// gives latency back in half steps.
func TestMonitorRelaxesWhenComfortable(t *testing.T) {
	m := testMonitor()
	// First drive QoS' down…
	feed(m, 0, 0.1, 30, 0.015)
	m.Tick(0.1)
	down := m.QoSPrime()
	if down >= 0.010 {
		t.Fatalf("setup: QoS' = %v, want below target", down)
	}
	// …then let the overload age out of the window and feed comfort.
	feed(m, 5.0, 6.0, 200, 0.002)
	for i := 0; i < 40; i++ {
		m.Tick(6.0 + float64(i)*0.1)
	}
	if m.QoSPrime() <= down {
		t.Fatalf("QoS' = %v, did not relax above %v", m.QoSPrime(), down)
	}
}

// TestMonitorClampsToBand: QoS′ never leaves [0.02, Cap]×target no
// matter how hard it is driven.
func TestMonitorClampsToBand(t *testing.T) {
	m := testMonitor()
	for k := 0; k < 200; k++ {
		at := float64(k) * 0.1
		feed(m, at, at+0.1, 30, 0.050) // 5× target, rate limit bypassed
		m.Tick(at + 0.1)
	}
	if lo := 0.02 * 0.010; m.QoSPrime() != lo {
		t.Fatalf("QoS' = %v, want floor %v", m.QoSPrime(), lo)
	}
	// Relax for a long time: capped at Cap×target.
	m2 := testMonitor()
	feed(m2, 0, 1.0, 200, 0.001)
	for i := 0; i < 500; i++ {
		m2.Tick(1.0 + float64(i)*0.1)
		feed(m2, 1.0+float64(i)*0.1, 1.0+float64(i)*0.1+0.1, 5, 0.001)
	}
	if m2.QoSPrime() > 0.010 {
		t.Fatalf("QoS' = %v exceeds the cap", m2.QoSPrime())
	}
}

// TestMonitorBurstRecovery is the age-pruning regression test (the PR-4
// live-side fix, now shared): after a latency burst drains, the stale
// violation samples age out of the window and QoS′ recovers instead of
// ratcheting down permanently. The runtime-level versions of this test
// (TestReTailMonitorRecoversAfterBurst in internal/manager and
// TestLiveMonitorRecoversAfterBurst in internal/live) assert the same
// property through each adapter.
func TestMonitorBurstRecovery(t *testing.T) {
	m := testMonitor()
	// A bad burst: 100 samples at 3× target.
	feed(m, 0, 0.2, 100, 0.030)
	m.Tick(0.2)
	m.Tick(0.3)
	hurt := m.QoSPrime()
	if hurt >= 0.010 {
		t.Fatalf("setup: QoS' = %v, want cut after burst", hurt)
	}
	// The burst ends; healthy traffic flows. The burst samples are > Span
	// old after t=0.7 and must be pruned (MinKeep keeps only the newest
	// 60, all healthy once enough fresh samples arrive).
	for i := 0; i < 100; i++ {
		at := 1.0 + float64(i)*0.1
		feed(m, at, at+0.1, 10, 0.003)
		m.Tick(at + 0.1)
	}
	if m.QoSPrime() <= hurt {
		t.Fatalf("QoS' stuck at %v after burst drained (window len %d)", m.QoSPrime(), len(m.winVal))
	}
}

// TestMonitorAgePruningKeepsMinimum: pruning never drops below MinKeep
// samples, so slow services keep a usable estimate.
func TestMonitorAgePruningKeepsMinimum(t *testing.T) {
	m := testMonitor()
	feed(m, 0, 0.1, 100, 0.005)
	m.Tick(100.0) // everything is ancient
	if got := len(m.winVal); got != 60 {
		t.Fatalf("window len = %d after pruning, want MinKeep=60", got)
	}
}

// TestMonitorHardCap: the window cannot outgrow MaxWindow between ticks.
func TestMonitorHardCap(t *testing.T) {
	m := NewMonitor(MonitorConfig{Target: 0.010, Percentile: 99, MaxWindow: 128})
	feed(m, 0, 0.1, 1000, 0.005)
	m.Tick(0.1)
	if got := len(m.winVal); got != 128 {
		t.Fatalf("window len = %d, want hard cap 128", got)
	}
}

// TestMonitorDisabledPinsTarget: the ablation pins QoS′ to the target.
func TestMonitorDisabledPinsTarget(t *testing.T) {
	m := NewMonitor(MonitorConfig{Target: 0.010, Percentile: 99, Disabled: true})
	feed(m, 0, 0.1, 100, 0.050)
	m.Tick(0.1)
	if m.QoSPrime() != 0.010 {
		t.Fatalf("QoS' = %v with the monitor disabled", m.QoSPrime())
	}
}

// TestMonitorNeedsMinSamples: too few samples leave QoS′ untouched.
func TestMonitorNeedsMinSamples(t *testing.T) {
	m := testMonitor()
	feed(m, 0, 0.1, 19, 0.050)
	m.Tick(0.1)
	if m.QoSPrime() != 0.010 {
		t.Fatalf("QoS' = %v moved on %d samples", m.QoSPrime(), len(m.winVal))
	}
}
