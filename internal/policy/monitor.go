package policy

import "retail/internal/stats"

// MonitorConfig parameterizes the QoS′ latency monitor (§VI-C). The zero
// value of every tunable selects the paper's constant (see NewMonitor).
type MonitorConfig struct {
	// Target is the application's QoS latency in seconds; QoS′ starts
	// here and is steered around it.
	Target Duration
	// Percentile is the QoS tail percentile (e.g. 99).
	Percentile float64
	// Interval is the monitor period in seconds (paper: 100 ms). It also
	// floors the rate-limit gap between consecutive QoS′ moves.
	Interval Duration
	// StepFrac is the QoS′ adjustment step as a fraction of Target
	// (paper: 5%).
	StepFrac float64
	// RelaxBelow is the fraction of target tail under which QoS′ is
	// relaxed upward (paper: 0.9).
	RelaxBelow float64
	// GuardBand is the fraction of Target above which the controller
	// starts cutting QoS′ (default 0.96). Keeping the band a few percent
	// under the target parks the closed-loop equilibrium just below QoS
	// instead of oscillating across it; see the commentary in Tick.
	GuardBand float64
	// CorrectionBand is the width, as a fraction of Target, over which
	// the downward correction ramps from a nudge at the guard band to the
	// full step at GuardBand+CorrectionBand (default 0.06). Narrower
	// bands react harder to small excursions.
	CorrectionBand float64
	// Cap bounds QoS′ relative to Target. The default 1.0 never lets the
	// internal target exceed QoS: although the constraint is on a
	// percentile (1% may violate), at light load — with no queueing to
	// spread sojourns — every slowed request rides QoS′, so a cap above
	// 1.0 programs tail violations.
	Cap float64
	// Span is how much history the tail estimate covers, in seconds
	// (default 0.5 — the simulator's historical monitor span).
	Span Duration
	// MinKeep is the number of most-recent samples age-pruning always
	// keeps so slow services (Sphinx completes a handful of requests per
	// second) still get a usable tail estimate (default 60).
	MinKeep int
	// MaxWindow hard-caps the window so it cannot grow without bound at
	// high RPS between ticks (default 8192).
	MaxWindow int
	// MinSamples is the minimum window size before the tail estimate is
	// trusted (default 20).
	MinSamples int
	// Alpha is the EWMA smoothing factor applied to the measured tail
	// before steering (default 0.35). 1 disables smoothing and steers on
	// the raw windowed percentile — the live runtime's historical posture,
	// where a load burst must collapse QoS′ within the burst itself for
	// admission control to engage.
	Alpha float64
	// Disabled pins QoS′ = Target permanently (Gemini's posture; the
	// ablation experiments use it to quantify the monitor's contribution).
	Disabled bool
}

// Monitor is the QoS′ latency monitor: a window of recent sojourn
// samples pruned by age, an EWMA-smoothed tail estimate, and the
// guard-banded proportional controller that steers the internal latency
// target QoS′.
//
// One implementation serves both runtimes. Its two hardening fixes —
// the JSQ-era guard band at 0.96·target with a proportional correction,
// and age-pruning of the sample window (without which one bad burst pins
// the measured tail high forever and QoS′ can only ratchet down, never
// recover) — previously existed on only one side each; unifying the code
// makes the asymmetry structurally impossible.
//
// Monitor performs no locking; adapters serialize access (the simulator
// is single-threaded, the live server calls under its mutex).
type Monitor struct {
	cfg MonitorConfig

	qosPrime Duration

	// Sample window: sojourn samples from the recent past, pruned by age
	// so the tail estimate is meaningful at any request rate.
	winAt  []Time
	winVal []float64
	// scratch backs the per-tick percentile: the tail estimate permutes a
	// copy of winVal (quickselect), and reusing one buffer keeps the tick
	// allocation-free.
	scratch []float64

	// smoothedTail is an EWMA of the measured tail; the raw percentile of
	// a short window is too noisy to steer QoS′ without oscillation.
	smoothedTail float64
	// nextAdjustAt rate-limits QoS′ moves to the service's measured
	// response time: adjusting again before completed requests reflect
	// the previous move steers on stale data and produces limit cycles on
	// services with multi-second sojourns (Sphinx).
	nextAdjustAt Time
}

// NewMonitor builds a monitor with the paper's defaults filled in.
func NewMonitor(cfg MonitorConfig) *Monitor {
	if cfg.Interval == 0 {
		cfg.Interval = 0.1
	}
	if cfg.StepFrac == 0 {
		cfg.StepFrac = 0.05
	}
	if cfg.RelaxBelow == 0 {
		cfg.RelaxBelow = 0.9
	}
	if cfg.GuardBand == 0 {
		cfg.GuardBand = 0.96
	}
	if cfg.CorrectionBand == 0 {
		cfg.CorrectionBand = 0.06
	}
	if cfg.Cap == 0 {
		cfg.Cap = 1.0
	}
	if cfg.Span == 0 {
		cfg.Span = 0.5
	}
	if cfg.MinKeep == 0 {
		cfg.MinKeep = 60
	}
	if cfg.MaxWindow == 0 {
		cfg.MaxWindow = 8192
	}
	if cfg.MinSamples == 0 {
		cfg.MinSamples = 20
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.35
	}
	return &Monitor{cfg: cfg, qosPrime: cfg.Target}
}

// Config returns the monitor's effective configuration, with every
// default filled in. The replay-parity harness uses it to build a second
// monitor guaranteed to start from the same constants.
func (m *Monitor) Config() MonitorConfig { return m.cfg }

// QoSPrime returns the current internal latency target in seconds.
func (m *Monitor) QoSPrime() Duration { return m.qosPrime }

// Observe records one completed request's sojourn (seconds) at the given
// time.
func (m *Monitor) Observe(at Time, sojourn float64) {
	m.winAt = append(m.winAt, at)
	m.winVal = append(m.winVal, sojourn)
}

// pruneWindow drops samples older than Span, but always keeps the most
// recent MinKeep so slow services still get a usable tail estimate.
func (m *Monitor) pruneWindow(now Time) {
	cut := 0
	for cut < len(m.winAt) && m.winAt[cut] < now-m.cfg.Span && len(m.winAt)-cut > m.cfg.MinKeep {
		cut++
	}
	if cut > 0 {
		m.winAt = append(m.winAt[:0], m.winAt[cut:]...)
		m.winVal = append(m.winVal[:0], m.winVal[cut:]...)
	}
	// Hard cap so the slices cannot grow without bound at high RPS
	// between ticks.
	if n := len(m.winVal); n > m.cfg.MaxWindow {
		m.winAt = append(m.winAt[:0], m.winAt[n-m.cfg.MaxWindow:]...)
		m.winVal = append(m.winVal[:0], m.winVal[n-m.cfg.MaxWindow:]...)
	}
}

// measuredTail returns the QoS-percentile sojourn over the recent window.
func (m *Monitor) measuredTail(now Time) (float64, bool) {
	m.pruneWindow(now)
	if len(m.winVal) < m.cfg.MinSamples {
		return 0, false
	}
	m.scratch = append(m.scratch[:0], m.winVal...)
	return stats.PercentileInPlace(m.scratch, m.cfg.Percentile), true
}

// Tick runs one monitor step (§VI-C): compare the measured tail over the
// recent window with the target and nudge QoS′.
func (m *Monitor) Tick(now Time) {
	if m.cfg.Disabled {
		m.qosPrime = m.cfg.Target
		return
	}
	target := m.cfg.Target
	step := m.cfg.StepFrac * target
	if measured, ok := m.measuredTail(now); ok {
		if m.smoothedTail == 0 {
			m.smoothedTail = measured
		} else {
			m.smoothedTail += m.cfg.Alpha * (measured - m.smoothedTail)
		}
		// Both directions are rate-limited to a fraction of the measured
		// response time: adjusting again before completed requests reflect
		// the previous move steers on stale data and produces limit cycles
		// on services with multi-second sojourns (Sphinx). Decreases react
		// faster than relaxations, and an outright overload (tail 15% past
		// target) bypasses the limit entirely, preserving the paper's
		// property that a load spike drives QoS′ to the floor within 2 s.
		rateGap := func(frac float64) Duration {
			gap := frac * m.smoothedTail
			if gap < m.cfg.Interval {
				gap = m.cfg.Interval
			}
			return gap
		}
		switch {
		// The guard band keeps the closed-loop equilibrium just under the
		// target instead of oscillating across it. The correction scales
		// with the excess: a tail grazing the guard gets a nudge, a real
		// violation gets the full step — otherwise measurement noise near
		// the target triggers full cuts and burns power on services whose
		// tail legitimately rides close to QoS (ImgDNN at max load). The
		// default band sits at 4% under target so the equilibrium keeps a
		// small safety margin: with fair JSQ tie-breaking the p99
		// concentrates tightly, and a band that starts at the target
		// itself parks the steady-state tail a hair past it.
		case m.smoothedTail > m.cfg.GuardBand*target:
			if now >= m.nextAdjustAt || m.smoothedTail > 1.15*target {
				frac := (m.smoothedTail/target - m.cfg.GuardBand) / m.cfg.CorrectionBand
				if frac > 1 {
					frac = 1
				}
				m.qosPrime -= step * frac
				m.nextAdjustAt = now + rateGap(0.2)
			}
		case m.smoothedTail < m.cfg.RelaxBelow*target && now >= m.nextAdjustAt:
			// Half steps upward: giving latency back is cheap, taking it
			// back after a violation is not.
			m.qosPrime += step / 2
			m.nextAdjustAt = now + rateGap(0.6)
		}
		lo := 0.02 * target
		hi := m.cfg.Cap * target
		if m.qosPrime < lo {
			m.qosPrime = lo
		}
		if m.qosPrime > hi {
			m.qosPrime = hi
		}
	}
}
