package policy

import "retail/internal/cpu"

// The replay types capture everything the decision core consumed during
// a run — decision inputs, completions, monitor ticks — in event order,
// so the identical sequence can be fed through a *different* runtime
// adapter and the resulting decisions compared byte-for-byte. The parity
// harness in internal/experiments records a trace from the simulator
// adapter and replays it through the live adapter's policy.

// TraceEventKind distinguishes replay events.
type TraceEventKind uint8

const (
	// DecisionEvent is one Algorithm 1 invocation: the head request, its
	// progress, the FCFS queue behind it and the optional just-arriving
	// extra member.
	DecisionEvent TraceEventKind = iota
	// CompletionEvent is one finished request feeding the monitor window.
	CompletionEvent
	// TickEvent is one monitor tick.
	TickEvent
)

// TraceEvent is one recorded event. Times are seconds in the recording
// runtime's timebase; the replaying adapter consumes them unchanged so
// every float64 the core sees is bit-identical to the recording run.
type TraceEvent struct {
	Kind TraceEventKind
	At   Time

	// Decision fields.
	Head     uint64   // head request ID
	Progress float64  // head progress fraction at decision time
	Queue    []uint64 // queued request IDs in FCFS order
	Extra    uint64   // just-arriving request ID (HasExtra)
	HasExtra bool

	// Completion fields.
	Sojourn float64 // seconds
}

// Trace is a recorded event sequence plus, for every request referenced
// by it, the feature vector and the generation timestamp (t1, seconds in
// the recording timebase). Gen travels as float64 — not nanoseconds — so
// the replaying adapter feeds the core the exact bits the recording
// adapter saw.
type Trace struct {
	Features map[uint64][]float64
	Gens     map[uint64]Time
	// Classes maps request IDs to SLO-class indexes. Nil (or a missing
	// entry) means class 0 — the single-class behavior every pre-class
	// recording had, so old traces replay unchanged.
	Classes map[uint64]uint8
	Events  []TraceEvent
}

// ReplayDecision is one replayed decision outcome: the chosen level, the
// QoS′ in force when it was made (after per-class scaling — the budget
// Alg1 enforced) and the head's SLO class. Comparing sequences of these
// (byte-serialized) is the parity criterion; Class is 0 for single-class
// runs, so pre-class encodings are unchanged.
type ReplayDecision struct {
	Level    cpu.Level
	QoSPrime Duration
	Class    uint8
}
