package server

import (
	"strconv"

	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// Metric names shared by the simulator and the wall-clock runtime live
// in the telemetry package (telemetry.Metric*); these aliases keep the
// sim-side call sites short.
const (
	MetricRequestsTotal   = telemetry.MetricRequestsTotal
	MetricDroppedTotal    = telemetry.MetricDroppedTotal
	MetricViolationsTotal = telemetry.MetricViolationsTotal
	MetricSojournSeconds  = telemetry.MetricSojournSeconds
	MetricServiceSeconds  = telemetry.MetricServiceSeconds
	MetricSlackSeconds    = telemetry.MetricSlackSeconds
	MetricQueueDepth      = telemetry.MetricQueueDepth
	MetricFreqResidency   = telemetry.MetricFreqResidency
	MetricQoSPrime        = telemetry.MetricQoSPrime
	MetricRetrainsTotal   = telemetry.MetricRetrainsTotal
	MetricDriftTotal      = telemetry.MetricDriftTotal
	MetricDecisionsTotal  = telemetry.MetricDecisionsTotal
)

// TelemetryHooks is a Hooks-chain adapter: it forwards every callback to
// the wrapped Hooks (normally the power manager installed by Attach) and
// records per-request telemetry into a Registry. It is virtual-time
// aware — durations come from the request's sim timestamps, not the wall
// clock — so a simulated run exposes the same metric families a live
// deployment does.
//
// Recorded instruments (all labeled app=<name>):
//
//	retail_requests_total            completed requests
//	retail_requests_dropped_total    requests shed at Arrival
//	retail_qos_violations_total      completions with sojourn > QoS
//	retail_request_sojourn_seconds   histogram of end-to-end latency
//	retail_request_service_seconds   histogram of service time
//	retail_request_slack_seconds     histogram of max(QoS − sojourn, 0)
//	retail_queue_depth               waiting requests across workers
//	retail_freq_residency_total      completions per served level (level label)
type TelemetryHooks struct {
	inner Hooks
	srv   *Server
	qos   workload.QoS

	completed  *telemetry.Counter
	dropped    *telemetry.Counter
	violations *telemetry.Counter
	sojourn    *telemetry.Histogram
	service    *telemetry.Histogram
	slack      *telemetry.Histogram
	queueDepth *telemetry.Gauge
	residency  []*telemetry.Counter // indexed by served level
}

// AttachTelemetry wraps the server's current Hooks (install the power
// manager first) with a TelemetryHooks recording into reg under the
// given app label. It returns the adapter so callers can inspect the
// instruments directly.
func AttachTelemetry(s *Server, reg *telemetry.Registry, app string, qos workload.QoS) *TelemetryHooks {
	return AttachTelemetryWith(s, reg, app, qos)
}

// AttachTelemetryWith is AttachTelemetry with extra labels on every
// series — the cluster layer uses it to key one server's metrics per
// node (node=…, and per sweep cell dispatcher=…/policy=…) while staying
// inside the same metric families a single-node run exposes.
func AttachTelemetryWith(s *Server, reg *telemetry.Registry, app string, qos workload.QoS, extra ...telemetry.Label) *TelemetryHooks {
	grid := s.Socket.Cores[0].Grid()
	labels := append([]telemetry.Label{telemetry.L("app", app)}, extra...)
	th := &TelemetryHooks{
		inner: s.Hooks,
		srv:   s,
		qos:   qos,
		completed: reg.Counter(MetricRequestsTotal,
			"Requests completed.", labels...),
		dropped: reg.Counter(MetricDroppedTotal,
			"Requests shed on arrival (load shedding).", labels...),
		violations: reg.Counter(MetricViolationsTotal,
			"Completions whose sojourn exceeded the QoS target.", labels...),
		sojourn: reg.Histogram(MetricSojournSeconds,
			"End-to-end request latency (t3-t1), the quantity QoS constrains.", labels...),
		service: reg.Histogram(MetricServiceSeconds,
			"Request service time (end-start).", labels...),
		slack: reg.Histogram(MetricSlackSeconds,
			"Latency headroom to the QoS target, clamped at zero.", labels...),
		queueDepth: reg.Gauge(MetricQueueDepth,
			"Requests waiting (not running) across all workers.", labels...),
	}
	for lvl := 0; lvl < grid.Levels(); lvl++ {
		lvlLabels := append(append([]telemetry.Label{}, labels...),
			telemetry.L("level", strconv.Itoa(lvl)))
		th.residency = append(th.residency, reg.Counter(MetricFreqResidency,
			"Completions per served frequency level.", lvlLabels...))
	}
	s.Hooks = th
	return th
}

// Arrival implements Hooks: forwards to the manager and counts drops.
func (t *TelemetryHooks) Arrival(e *sim.Engine, w *Worker, r *workload.Request) bool {
	ok := t.inner.Arrival(e, w, r)
	if !ok {
		t.dropped.Inc()
		return false
	}
	// The request is admitted but not yet appended to the queue; +1
	// reflects it. Idle-worker arrivals start immediately and the Start
	// hook corrects the gauge in the same virtual instant.
	t.queueDepth.Set(float64(t.srv.QueuedTotal() + 1))
	return true
}

// Ready implements Hooks.
func (t *TelemetryHooks) Ready(e *sim.Engine, w *Worker, r *workload.Request) {
	t.inner.Ready(e, w, r)
}

// Start implements Hooks.
func (t *TelemetryHooks) Start(e *sim.Engine, w *Worker, r *workload.Request) {
	t.inner.Start(e, w, r)
	t.queueDepth.Set(float64(t.srv.QueuedTotal()))
}

// Complete implements Hooks: records the per-request histograms and the
// frequency-residency counter, then forwards.
func (t *TelemetryHooks) Complete(e *sim.Engine, w *Worker, r *workload.Request) {
	soj := float64(r.Sojourn())
	t.completed.Inc()
	t.sojourn.Observe(soj)
	t.service.Observe(float64(r.ServiceTime()))
	if slack := float64(t.qos.Latency) - soj; slack > 0 {
		t.slack.Observe(slack)
	} else {
		t.slack.Observe(0)
		t.violations.Inc()
	}
	if lvl := r.ServedLevel; lvl >= 0 && lvl < len(t.residency) {
		t.residency[lvl].Inc()
	}
	t.queueDepth.Set(float64(t.srv.QueuedTotal()))
	t.inner.Complete(e, w, r)
}
