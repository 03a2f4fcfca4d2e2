package live

import (
	"strconv"
	"time"

	"retail/internal/cpu"
	"retail/internal/telemetry"
)

// liveMetrics holds the wall-clock runtime's instrument handles. They
// are the same metric families the simulator records (telemetry.Metric*
// schema), so a scrape of retail live looks exactly like a scrape of a
// simulated run — just with wall-clock seconds in the histograms.
type liveMetrics struct {
	completed  *telemetry.Counter
	violations *telemetry.Counter
	sojourn    *telemetry.Histogram
	service    *telemetry.Histogram
	slack      *telemetry.Histogram
	queueDepth *telemetry.Gauge
	qosPrime   *telemetry.Gauge
	decisions  *telemetry.Counter
	residency  []*telemetry.Counter // indexed by decided level
	qosSeconds float64

	// Graceful-degradation instruments.
	shed          *telemetry.Counter
	deadlineDrops *telemetry.Counter
	dvfsRetries   *telemetry.Counter
	dvfsFallbacks *telemetry.Counter
	dvfsErrors    *telemetry.Counter
	pinned        *telemetry.Gauge
}

// newLiveMetrics registers the runtime's instruments under app.
func newLiveMetrics(reg *telemetry.Registry, app string, grid *cpu.Grid, qosSeconds float64) *liveMetrics {
	appLabel := telemetry.L("app", app)
	m := &liveMetrics{
		completed: reg.Counter(telemetry.MetricRequestsTotal,
			"Requests completed.", appLabel),
		violations: reg.Counter(telemetry.MetricViolationsTotal,
			"Completions whose sojourn exceeded the QoS target.", appLabel),
		sojourn: reg.Histogram(telemetry.MetricSojournSeconds,
			"End-to-end request latency (t3-t1), the quantity QoS constrains.", appLabel),
		service: reg.Histogram(telemetry.MetricServiceSeconds,
			"Request service time (end-start).", appLabel),
		slack: reg.Histogram(telemetry.MetricSlackSeconds,
			"Latency headroom to the QoS target, clamped at zero.", appLabel),
		queueDepth: reg.Gauge(telemetry.MetricQueueDepth,
			"Requests waiting (not running) across all workers.", appLabel),
		qosPrime: reg.Gauge(telemetry.MetricQoSPrime,
			"Internal latency target QoS' steered by the latency monitor.", appLabel),
		decisions: reg.Counter(telemetry.MetricDecisionsTotal,
			"Algorithm 1 frequency decisions.", appLabel),
		shed: reg.Counter(telemetry.MetricDroppedTotal,
			"Arrivals shed by admission control (load shedding).", appLabel),
		deadlineDrops: reg.Counter(telemetry.MetricDeadlineTimeouts,
			"Queued requests dropped at dequeue: waiting time alone exceeded the deadline budget.", appLabel),
		dvfsRetries: reg.Counter(telemetry.MetricDVFSRetries,
			"DVFS write retries after a failure.", appLabel),
		dvfsFallbacks: reg.Counter(telemetry.MetricDVFSFallbacks,
			"DVFS retry budgets exhausted; worker pinned at max frequency.", appLabel),
		dvfsErrors: reg.Counter(telemetry.MetricDVFSWriteErrors,
			"Failed DVFS write attempts, including failed retries.", appLabel),
		pinned: reg.Gauge(telemetry.MetricWorkersPinned,
			"Workers currently pinned at max frequency by the DVFS fallback.", appLabel),
		qosSeconds: qosSeconds,
	}
	for lvl := 0; lvl < grid.Levels(); lvl++ {
		m.residency = append(m.residency, reg.Counter(telemetry.MetricFreqResidency,
			"Completions per decided frequency level.",
			appLabel, telemetry.L("level", strconv.Itoa(lvl))))
	}
	return m
}

// observeCompletion records one finished request. Nil-safe so the worker
// loop can call it unconditionally.
func (m *liveMetrics) observeCompletion(sojourn, service time.Duration, lvl cpu.Level) {
	if m == nil {
		return
	}
	soj := sojourn.Seconds()
	m.completed.Inc()
	m.sojourn.Observe(soj)
	m.service.Observe(service.Seconds())
	if slack := m.qosSeconds - soj; slack > 0 {
		m.slack.Observe(slack)
	} else {
		m.slack.Observe(0)
		m.violations.Inc()
	}
	if int(lvl) >= 0 && int(lvl) < len(m.residency) {
		m.residency[lvl].Inc()
	}
}

func (m *liveMetrics) setQueueDepth(n int) {
	if m == nil {
		return
	}
	m.queueDepth.Set(float64(n))
}

func (m *liveMetrics) setQoSPrime(d time.Duration) {
	if m == nil {
		return
	}
	m.qosPrime.Set(d.Seconds())
}

func (m *liveMetrics) incDecisions() {
	if m == nil {
		return
	}
	m.decisions.Inc()
}

func (m *liveMetrics) incShed() {
	if m == nil {
		return
	}
	m.shed.Inc()
}

func (m *liveMetrics) incDeadlineDrop() {
	if m == nil {
		return
	}
	m.deadlineDrops.Inc()
}

func (m *liveMetrics) incDVFSRetry() {
	if m == nil {
		return
	}
	m.dvfsRetries.Inc()
}

func (m *liveMetrics) incDVFSFallback() {
	if m == nil {
		return
	}
	m.dvfsFallbacks.Inc()
}

func (m *liveMetrics) incDVFSWriteError() {
	if m == nil {
		return
	}
	m.dvfsErrors.Inc()
}

func (m *liveMetrics) setPinned(n int) {
	if m == nil {
		return
	}
	m.pinned.Set(float64(n))
}
