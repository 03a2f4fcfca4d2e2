package live

import (
	"time"

	"retail/internal/cpu"
	"retail/internal/telemetry"
)

// liveMetrics holds the wall-clock runtime's instrument handles. The
// per-request set is telemetry.Requests, the one the simulator records,
// so a scrape of retail live looks exactly like a scrape of a simulated
// run — just with wall-clock seconds in the histograms. The rest are the
// runtime's own: QoS′, decisions, deadline drops and the DVFS fallback.
type liveMetrics struct {
	req       *telemetry.Requests
	qosPrime  *telemetry.Gauge
	decisions *telemetry.Counter

	// Graceful-degradation instruments.
	deadlineDrops *telemetry.Counter
	dvfsRetries   *telemetry.Counter
	dvfsFallbacks *telemetry.Counter
	dvfsErrors    *telemetry.Counter
	pinned        *telemetry.Gauge
}

// newLiveMetrics registers the runtime's instruments under app.
func newLiveMetrics(reg *telemetry.Registry, app string, grid *cpu.Grid, qosSeconds float64) *liveMetrics {
	appLabel := telemetry.L("app", app)
	return &liveMetrics{
		req: telemetry.NewRequests(reg, grid.Levels(), qosSeconds, appLabel),
		qosPrime: reg.Gauge(telemetry.MetricQoSPrime,
			"Internal latency target QoS' steered by the latency monitor.", appLabel),
		decisions: reg.Counter(telemetry.MetricDecisionsTotal,
			"Algorithm 1 frequency decisions.", appLabel),
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
	}
}

// observeCompletion records one finished request. Nil-safe so the worker
// loop can call it unconditionally.
func (m *liveMetrics) observeCompletion(sojourn, service time.Duration, lvl cpu.Level) {
	if m == nil {
		return
	}
	m.req.Complete(sojourn.Seconds(), service.Seconds(), int(lvl))
}

func (m *liveMetrics) setQueueDepth(n int) {
	if m == nil {
		return
	}
	m.req.SetQueueDepth(n)
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
	m.req.Drop()
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
