// Package trace is the simulator's request flight recorder: a server
// observer that keeps one span per request — arrival, feature-ready,
// start and completion plus the attribution of the frequency decisions
// made for it — tail-samples the spans into bounded rings, and exports
// them as a Chrome/Perfetto trace or CSV. Audit folds the retained spans
// into per-cause violation counts and prediction-error tables: the
// artifact an operator of the real system wants when debugging a QoS
// violation.
package trace

import (
	"math"
	"sort"

	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Span is one request's complete, decision-attributed journey: its
// lifecycle timestamps, plus *why* the request
// ran the way it did — queue depth at arrival, the chosen frequency level,
// the binding request that forced Algorithm 1 to that level, the
// predictor's estimate versus the measured service time, and the internal
// latency target in force when the last decision was made.
type Span struct {
	ReqID  uint64
	App    string
	Worker int

	Arrival sim.Time
	Ready   sim.Time
	Start   sim.Time
	End     sim.Time
	Dropped bool

	// QueueAtArrival is the worker's queue depth (waiting requests, not
	// counting the one running) the instant this request arrived.
	QueueAtArrival int
	// Level is the frequency level the request was served at (the last
	// decided level for in-flight annotations; the effective served level
	// once complete).
	Level int
	// Binding identifies the request whose predicted deadline forced the
	// last frequency decision for this span's pipeline to Level. Equal to
	// ReqID when the request itself was binding; 0 before any decision.
	Binding uint64
	// QoSPrime is the internal latency target at the last decision.
	QoSPrime sim.Duration
	// PredictedService is the predictor's estimate (seconds) for this
	// request at Level, from the last decision in which it was the head;
	// NaN until such a decision happens (e.g. Rubik's distribution
	// estimate is recorded; Pegasus-style managers record nothing).
	PredictedService float64
	// DecisionDelay accumulates the modeled decision latency of every
	// frequency decision computed while this request was the head.
	DecisionDelay sim.Duration
	// Decisions counts Algorithm 1 invocations with this request at the
	// head of the pipeline.
	Decisions int
}

// Sojourn returns End − Arrival. The QoS constrains generation (t1) to
// completion, and the simulator models no network delay, so the server-side
// arrival instant equals the request's generation time and this is exactly
// the sojourn the QoS verdict uses.
func (s Span) Sojourn() sim.Duration { return s.End - s.Arrival }

// ServiceTime returns End − Start (0 for dropped spans).
func (s Span) ServiceTime() sim.Duration {
	if s.Dropped {
		return 0
	}
	return s.End - s.Start
}

// QueueDelay returns Start − Arrival.
func (s Span) QueueDelay() sim.Duration {
	if s.Dropped {
		return 0
	}
	return s.Start - s.Arrival
}

// PredictionError returns actual − predicted service time (seconds) and
// whether a prediction was recorded.
func (s Span) PredictionError() (float64, bool) {
	if s.Dropped || math.IsNaN(s.PredictedService) {
		return 0, false
	}
	return float64(s.ServiceTime()) - s.PredictedService, true
}

// FreqPoint samples one frequency decision for the counter track: which
// worker was steered to which level at what time.
type FreqPoint struct {
	At     sim.Time
	Worker int
	Level  int
}

// FlightRecorderConfig bounds the recorder.
type FlightRecorderConfig struct {
	// QoS classifies completions: spans whose sojourn exceeds QoS.Latency
	// are violations and are always retained.
	QoS workload.QoS
	// Capacity is the per-class ring size (violations+slow spans in one
	// ring, sampled ordinary spans in the other; ≤0 means 4096 each).
	Capacity int
	// SampleEvery keeps 1 of every N ordinary (fast, non-violating)
	// spans; ≤1 keeps all. Violating, dropped and slowest-p99 spans are
	// exempt from sampling.
	SampleEvery int
	// FreqCapacity bounds the frequency counter track (≤0 means
	// 4×Capacity).
	FreqCapacity int
}

// FlightRecorder is the span-based flight recorder: a server.Observer
// (register it with Server.Observe) for lifecycle timestamps, and a
// server.DecisionSink for attribution. Completed spans
// go through tail-sampling into two bounded rings:
//
//   - the *interesting* ring always keeps QoS-violating spans, dropped
//     requests, and spans at or above the running p99 sojourn (P²
//     streaming estimate) — the ones an on-call engineer asks about;
//   - the *sampled* ring keeps every SampleEvery-th ordinary span for
//     baseline context.
//
// Both rings overwrite their own oldest entry when full, so memory is
// bounded regardless of run length; span structs are pooled, so steady
// state allocates nothing once the rings are warm. The recorder is a pure
// observer: attaching it never changes simulated behavior (decisions,
// timing, power) — pinned by TestFlightRecorderPreservesBehavior.
type FlightRecorder struct {
	cfg FlightRecorderConfig

	active map[uint64]*Span
	free   []*Span

	interesting ring
	sampled     ring
	freq        []FreqPoint
	freqHead    int
	freqFull    bool

	p99      *stats.P2Quantile
	seen     uint64 // completed ordinary spans, for counter sampling
	total    uint64 // all completed or dropped spans offered
	kept     uint64
	violated uint64
	dropped  uint64
}

// ring is a fixed-capacity overwrite-oldest span buffer.
type ring struct {
	buf  []*Span
	head int // next write position
	full bool
}

func (rb *ring) push(s *Span) (evicted *Span) {
	if rb.full {
		evicted = rb.buf[rb.head]
	}
	if len(rb.buf) < cap(rb.buf) {
		rb.buf = append(rb.buf, s)
	} else {
		rb.buf[rb.head] = s
	}
	rb.head++
	if rb.head == cap(rb.buf) {
		rb.head = 0
		rb.full = true
	}
	return evicted
}

// NewFlightRecorder builds a recorder with the given bounds.
func NewFlightRecorder(cfg FlightRecorderConfig) *FlightRecorder {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	if cfg.SampleEvery < 1 {
		cfg.SampleEvery = 1
	}
	if cfg.FreqCapacity <= 0 {
		cfg.FreqCapacity = 4 * cfg.Capacity
	}
	return &FlightRecorder{
		cfg:         cfg,
		active:      map[uint64]*Span{},
		interesting: ring{buf: make([]*Span, 0, cfg.Capacity)},
		sampled:     ring{buf: make([]*Span, 0, cfg.Capacity)},
		freq:        make([]FreqPoint, 0, cfg.FreqCapacity),
		p99:         stats.NewP2Quantile(0.99),
	}
}

func (fr *FlightRecorder) spanFor(r *workload.Request) *Span {
	var sp *Span
	if n := len(fr.free); n > 0 {
		sp = fr.free[n-1]
		fr.free[n-1] = nil
		fr.free = fr.free[:n-1]
		*sp = Span{}
	} else {
		sp = &Span{}
	}
	sp.ReqID = r.ID
	sp.App = r.App
	sp.PredictedService = math.NaN()
	fr.active[r.ID] = sp
	return sp
}

// Arrived implements server.Observer.
func (fr *FlightRecorder) Arrived(e *sim.Engine, w *server.Worker, r *workload.Request, kept bool) {
	sp := fr.spanFor(r)
	sp.Worker = w.ID
	sp.Arrival = e.Now()
	sp.QueueAtArrival = len(w.Queue())
	if !kept {
		// Dropped on arrival: the span ends here and is always retained —
		// shed load is exactly what an operator debugging a violation
		// storm wants to see.
		sp.Dropped = true
		sp.End = e.Now()
		delete(fr.active, r.ID)
		fr.total++
		fr.dropped++
		fr.keep(sp)
	}
}

// Ready implements server.Observer.
func (fr *FlightRecorder) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if sp := fr.active[r.ID]; sp != nil {
		sp.Ready = e.Now()
	}
}

// Started implements server.Observer.
func (fr *FlightRecorder) Started(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if sp := fr.active[r.ID]; sp != nil {
		sp.Start = e.Now()
		sp.Worker = w.ID
	}
}

// Completed implements server.Observer: finalize the span and run it
// through the tail-sampling policy.
func (fr *FlightRecorder) Completed(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if sp := fr.active[r.ID]; sp != nil {
		delete(fr.active, r.ID)
		sp.End = e.Now()
		sp.Level = r.ServedLevel
		fr.total++
		soj := float64(sp.Sojourn())
		p99, haveP99 := fr.p99.Value()
		switch {
		case soj > float64(fr.cfg.QoS.Latency):
			fr.violated++
			fr.keep(sp)
		case haveP99 && soj >= p99:
			fr.keep(sp)
		default:
			fr.seen++
			if fr.seen%uint64(fr.cfg.SampleEvery) == 0 {
				fr.keepSampled(sp)
			} else {
				fr.free = append(fr.free, sp)
			}
		}
		fr.p99.Add(soj)
	}
}

func (fr *FlightRecorder) keep(sp *Span) {
	fr.kept++
	if ev := fr.interesting.push(sp); ev != nil {
		fr.free = append(fr.free, ev)
		fr.kept--
	}
}

func (fr *FlightRecorder) keepSampled(sp *Span) {
	fr.kept++
	if ev := fr.sampled.push(sp); ev != nil {
		fr.free = append(fr.free, ev)
		fr.kept--
	}
}

// RecordDecision implements server.DecisionSink: annotate the head
// request's span and extend the frequency counter track.
func (fr *FlightRecorder) RecordDecision(d server.Decision) {
	if sp := fr.active[d.Head]; sp != nil {
		sp.Level = int(d.Level)
		sp.Binding = d.Binding
		sp.QoSPrime = d.QoSPrime
		sp.PredictedService = d.PredictedService
		sp.DecisionDelay += d.DecisionDelay
		sp.Decisions++
	}
	fp := FreqPoint{At: d.At, Worker: d.Worker, Level: int(d.Level)}
	if len(fr.freq) < cap(fr.freq) {
		fr.freq = append(fr.freq, fp)
		return
	}
	fr.freq[fr.freqHead] = fp
	fr.freqHead++
	fr.freqFull = true
	if fr.freqHead == cap(fr.freq) {
		fr.freqHead = 0
	}
}

// Spans returns the retained spans (violations, dropped, slow, sampled) as
// copies, sorted by (End, ReqID) so the output is deterministic regardless
// of ring wraparound. Safe to modify.
func (fr *FlightRecorder) Spans() []Span {
	out := make([]Span, 0, len(fr.interesting.buf)+len(fr.sampled.buf))
	for _, sp := range fr.interesting.buf {
		out = append(out, *sp)
	}
	for _, sp := range fr.sampled.buf {
		out = append(out, *sp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].ReqID < out[j].ReqID
	})
	return out
}

// FreqPoints returns the frequency counter track in chronological order
// (a copy; safe to modify).
func (fr *FlightRecorder) FreqPoints() []FreqPoint {
	if !fr.freqFull {
		return append([]FreqPoint(nil), fr.freq...)
	}
	out := make([]FreqPoint, 0, len(fr.freq))
	out = append(out, fr.freq[fr.freqHead:]...)
	out = append(out, fr.freq[:fr.freqHead]...)
	return out
}

// FlightStats summarizes the recorder's sampling behavior.
type FlightStats struct {
	Total      uint64 // spans offered (completed + dropped)
	Kept       uint64 // spans currently retained across both rings
	Violations uint64 // spans over QoS
	Dropped    uint64 // spans shed on arrival
}

// Stats returns sampling counters.
func (fr *FlightRecorder) Stats() FlightStats {
	return FlightStats{Total: fr.total, Kept: fr.kept, Violations: fr.violated, Dropped: fr.dropped}
}

// QoS returns the recorder's classification target.
func (fr *FlightRecorder) QoS() workload.QoS { return fr.cfg.QoS }
