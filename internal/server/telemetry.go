package server

import (
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

// Telemetry is the simulator's telemetry observer: it records
// telemetry.Requests — the per-request instrument set the live server
// records too — from the server's lifecycle. It is virtual-time aware:
// durations come from the request's sim timestamps, not the wall clock,
// so a simulated run exposes the same metric families a live deployment
// does.
type Telemetry struct {
	NoopObserver
	srv *Server
	m   *telemetry.Requests
}

// AttachTelemetry registers a Telemetry observer on s, recording into reg
// under app=<app> plus any extra labels on every series — the cluster
// layer keys one server's metrics per node (node=…, and per sweep cell
// dispatcher=…/policy=…) while staying inside the same metric families a
// single-node run exposes.
func AttachTelemetry(s *Server, reg *telemetry.Registry, app string, qos workload.QoS, extra ...telemetry.Label) *Telemetry {
	labels := append([]telemetry.Label{telemetry.L("app", app)}, extra...)
	t := &Telemetry{
		srv: s,
		m:   telemetry.NewRequests(reg, s.Socket.Cores[0].Grid().Levels(), float64(qos.Latency), labels...),
	}
	s.Observe(t)
	return t
}

// Arrived implements Observer: count drops, gauge the queue.
func (t *Telemetry) Arrived(e *sim.Engine, w *Worker, r *workload.Request, kept bool) {
	if !kept {
		t.m.Drop()
		return
	}
	// The request is admitted but not yet appended to the queue; +1
	// reflects it. Idle-worker arrivals start immediately and Started
	// corrects the gauge in the same virtual instant.
	t.m.SetQueueDepth(t.srv.QueuedTotal() + 1)
}

// Started implements Observer.
func (t *Telemetry) Started(e *sim.Engine, w *Worker, r *workload.Request) {
	t.m.SetQueueDepth(t.srv.QueuedTotal())
}

// Completed implements Observer: record the per-request histograms and
// the frequency-residency counter.
func (t *Telemetry) Completed(e *sim.Engine, w *Worker, r *workload.Request) {
	t.m.Complete(float64(r.Sojourn()), float64(r.ServiceTime()), r.ServedLevel)
	t.m.SetQueueDepth(t.srv.QueuedTotal())
}
