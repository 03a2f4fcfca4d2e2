package telemetry

import "strconv"

// Requests is the per-request instrument set both runtimes record: the
// simulator's telemetry observer (virtual seconds) and the live server
// (wall-clock seconds) register it once and feed it one completion at a
// time, so the two expose the same families with the same help text and
// the same completion logic.
//
//	retail_requests_total            completed requests
//	retail_requests_dropped_total    requests shed on arrival
//	retail_qos_violations_total      completions with sojourn > QoS
//	retail_request_sojourn_seconds   histogram of end-to-end latency
//	retail_request_service_seconds   histogram of service time
//	retail_request_slack_seconds     histogram of max(QoS − sojourn, 0)
//	retail_queue_depth               waiting requests across workers
//	retail_freq_residency_total      completions per frequency level (level label)
type Requests struct {
	completed  *Counter
	dropped    *Counter
	violations *Counter
	sojourn    *Histogram
	service    *Histogram
	slack      *Histogram
	queueDepth *Gauge
	residency  []*Counter // indexed by level
	qos        float64    // seconds
}

// NewRequests registers the set in reg, every series carrying labels,
// with one residency counter per level in [0, levels). qos is the QoS
// latency target in seconds.
func NewRequests(reg *Registry, levels int, qos float64, labels ...Label) *Requests {
	m := &Requests{
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
		qos: qos,
	}
	for lvl := 0; lvl < levels; lvl++ {
		lvlLabels := append(append([]Label{}, labels...), L("level", strconv.Itoa(lvl)))
		m.residency = append(m.residency, reg.Counter(MetricFreqResidency,
			"Completions per served frequency level.", lvlLabels...))
	}
	return m
}

// Complete records one finished request: its sojourn and service time
// (seconds), its slack to the QoS target or a violation, and the level it
// was served at (out-of-range levels are not counted).
func (m *Requests) Complete(sojourn, service float64, level int) {
	m.completed.Inc()
	m.sojourn.Observe(sojourn)
	m.service.Observe(service)
	if slack := m.qos - sojourn; slack > 0 {
		m.slack.Observe(slack)
	} else {
		m.slack.Observe(0)
		m.violations.Inc()
	}
	if level >= 0 && level < len(m.residency) {
		m.residency[level].Inc()
	}
}

// Drop counts one request shed on arrival.
func (m *Requests) Drop() { m.dropped.Inc() }

// SetQueueDepth sets the waiting-requests gauge.
func (m *Requests) SetQueueDepth(n int) { m.queueDepth.Set(float64(n)) }
