package server

import (
	"retail/internal/cpu"
	"retail/internal/sim"
)

// Decision is one power-manager frequency decision, attributed: not just
// *what* level was chosen but *why* — which request in the pipeline forced
// Algorithm 1 past the lower levels, what the predictor expected, and what
// the internal latency target was at that instant. It is the unit the
// flight recorder (internal/trace) consumes to explain, post hoc, why a
// given request ran at level L and which prediction error caused a QoS′
// violation.
//
// The struct is passed by value and carries only scalars so emitting a
// decision never allocates. Managers emit through the deciding worker
// (Worker.RecordDecision), which fans the value out to every observer of
// its server that implements DecisionSink; they skip the emission
// entirely while Worker.WantsDecisions is false, keeping the decision hot
// path identical to the unobserved build.
type Decision struct {
	// At is the virtual time the decision was computed (the frequency
	// write lands DecisionDelay later).
	At sim.Time
	// Worker is the worker core the decision applies to.
	Worker int
	// Head is the request at the head of the worker's pipeline — the one
	// whose execution frequency is being (re)decided.
	Head uint64
	// Level is the chosen frequency level.
	Level cpu.Level
	// Binding is the ID of the binding request: the pipeline member whose
	// predicted deadline forced the search past Level−1 (equal to Head
	// when the head request itself binds, or when Level is the lowest
	// level and nothing binds).
	Binding uint64
	// QueueLen is the worker's queue depth (waiting, not running) at
	// decision time.
	QueueLen int
	// QoSPrime is the manager's internal latency target at decision time
	// (managers without a latency monitor report their fixed QoS), after
	// any per-SLO-class scaling (policy.ClassTargets) for the head's
	// class — the budget Algorithm 1 actually enforced.
	QoSPrime sim.Duration
	// Class is the head request's SLO class index (0 for single-class
	// workloads).
	Class uint8
	// DecisionDelay is the modeled time until the frequency write lands
	// (inference count × per-inference cost for ReTail, the NN latency
	// for Gemini).
	DecisionDelay sim.Duration
	// PredictedService is the predictor's service-time estimate (seconds)
	// for Head at Level; 0 when the manager has no per-request predictor.
	PredictedService float64
}

// DecisionSink receives frequency decisions. An Observer that implements
// it gets every decision made on the server it observes (Server.Observe);
// the flight recorder, the ledger and the parity recorder do.
// Implementations must not retain pointers into manager state; the
// Decision value is self-contained.
type DecisionSink interface {
	RecordDecision(Decision)
}
