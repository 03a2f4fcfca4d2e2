// Package obs is the fleet observability plane: it turns any run —
// simulated, cluster sweep, or live — into one attributed,
// machine-readable artifact.
//
// The paper's objective is joint: minimize energy *while* holding the
// QoS tail. A winners table proves who won; it cannot say where the
// joules went or why the tail missed. This package closes that gap
// with three pieces:
//
//   - NodeLedger (this file): an energy×QoS ledger attributing every
//     joule to an app × node × frequency-level cell and every QoS
//     violation to a decision cause (queueing / mispredict /
//     decision-delay, the trace.Audit vocabulary), accumulated by a
//     server observer with the same zero-alloc discipline as
//     internal/telemetry — TestRetailDecideZeroAllocWithLedger pins it.
//   - Report (report.go): a versioned run-report JSON with benchjson-
//     style provenance stamps, byte-stable at a fixed seed once the
//     provenance block is masked, so reports diff across PRs.
//   - Rollup (rollup.go) and RuntimeSampler (runtime.go): fleet-level
//     merges of per-node telemetry, and a runtime/metrics health
//     sampler feeding the shared metric schema.
package obs

import (
	"math"

	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/trace"
	"retail/internal/workload"
)

// NumCauses is the size of the violation-cause axis; indices are
// trace.Cause values (queueing, mispredict, decision-delay).
const NumCauses = 3

// LevelCell is one frequency level's tally inside a NodeLedger.
type LevelCell struct {
	Completions uint64
	Violations  [NumCauses]uint64
}

// pendingDecision carries what the ledger needs from RecordDecision to
// attribute a later violation: the last predicted service time for the
// request and its accumulated decision delay — the same two fields the
// flight recorder annotates spans with, without retaining the span.
type pendingDecision struct {
	predicted float64
	delay     sim.Duration
}

// NodeLedger attributes one node's completions, violations and drops
// per frequency level and violation cause. It is a server.Observer, and
// a server.DecisionSink for the cause attribution; energy
// is not accumulated here — it lives in cpu.Socket.EnergyByLevel, and
// Summary marries the two at read time so Σ joules always equals what
// the socket reports.
//
// The hot path allocates nothing in steady state: counters are plain
// integers, the pending map holds value-type entries that recycle as
// requests complete, and cause attribution builds a stack trace.Span.
type NodeLedger struct {
	server.NoopObserver
	qos    workload.QoS
	levels int

	drops       uint64
	completions uint64
	cells       []LevelCell
	pending     map[uint64]pendingDecision
}

// AttachLedger registers a new ledger as an observer of s. It receives
// the decisions of s's manager for cause attribution; under a manager
// that emits none, every violation falls back to the mispredict cause,
// exactly as trace.Attribute does for spans with no recorded decision.
func AttachLedger(s *server.Server, qos workload.QoS) *NodeLedger {
	l := &NodeLedger{
		qos:     qos,
		levels:  s.Socket.Cores[0].Grid().Levels(),
		pending: map[uint64]pendingDecision{},
	}
	l.cells = make([]LevelCell, l.levels)
	s.Observe(l)
	return l
}

// Reset zeroes the tallies (in-flight decision annotations survive:
// a request straddling the reset still gets attributed on completion).
// Fleet runs call it at warmup end, in the same event that resets
// socket energy, so counts and joules share one measurement epoch.
func (l *NodeLedger) Reset() {
	l.drops = 0
	l.completions = 0
	for i := range l.cells {
		l.cells[i] = LevelCell{}
	}
}

// Arrived implements server.Observer.
func (l *NodeLedger) Arrived(e *sim.Engine, w *server.Worker, r *workload.Request, kept bool) {
	if !kept {
		l.drops++
	}
}

// Completed implements server.Observer: tally the completion under its
// served level and, on a QoS violation, attribute a cause with the
// trace.Audit rule — largest of queueing delay, positive prediction
// error and accumulated decision delay wins.
func (l *NodeLedger) Completed(e *sim.Engine, w *server.Worker, r *workload.Request) {
	lvl := r.ServedLevel
	if lvl < 0 {
		lvl = 0
	} else if lvl >= l.levels {
		lvl = l.levels - 1
	}
	cell := &l.cells[lvl]
	cell.Completions++
	l.completions++
	p, decided := l.pending[r.ID]
	if decided {
		delete(l.pending, r.ID)
	}
	if r.Sojourn() > l.qos.Latency {
		sp := trace.Span{
			ReqID:            r.ID,
			Arrival:          r.Recv,
			Start:            r.Start,
			End:              r.End,
			DecisionDelay:    p.delay,
			PredictedService: math.NaN(),
		}
		if decided {
			sp.PredictedService = p.predicted
		}
		cell.Violations[trace.Attribute(sp)]++
	}
}

// RecordDecision implements server.DecisionSink: remember the head
// request's latest prediction and accumulate its decision delay, the
// two ingredients Complete needs for cause attribution.
func (l *NodeLedger) RecordDecision(d server.Decision) {
	p := l.pending[d.Head]
	p.predicted = d.PredictedService
	p.delay += d.DecisionDelay
	l.pending[d.Head] = p
}

// Drops returns arrivals the manager rejected since the last Reset.
func (l *NodeLedger) Drops() uint64 { return l.drops }

// Completions returns completions since the last Reset.
func (l *NodeLedger) Completions() uint64 { return l.completions }

// Violations sums attributed violations across levels and causes.
func (l *NodeLedger) Violations() uint64 {
	var n uint64
	for _, c := range l.cells {
		for _, v := range c.Violations {
			n += v
		}
	}
	return n
}

// Cells returns a copy of the per-level tallies.
func (l *NodeLedger) Cells() []LevelCell {
	return append([]LevelCell(nil), l.cells...)
}

// Summary assembles the serializable ledger view for one node, marrying
// the observed tallies with the socket-side energy split the caller
// reads from cpu.Socket (EnergyByLevel and UncoreJoules over the same
// measurement epoch as the last Reset). Every level appears, active or
// not, so reports are fixed-shape and diffable.
func (l *NodeLedger) Summary(app string, node int, energyByLevelJ []float64, uncoreJ float64) NodeSummary {
	s := NodeSummary{
		App:     app,
		Node:    node,
		Drops:   l.drops,
		UncoreJ: uncoreJ,
		Levels:  make([]LevelSummary, l.levels),
	}
	for i := range s.Levels {
		ls := LevelSummary{
			Level:       i,
			Completions: l.cells[i].Completions,
			Queueing:    l.cells[i].Violations[trace.CauseQueueing],
			Mispredict:  l.cells[i].Violations[trace.CauseMispredict],
			Delay:       l.cells[i].Violations[trace.CauseDecisionDelay],
		}
		if i < len(energyByLevelJ) {
			ls.EnergyJ = energyByLevelJ[i]
		}
		s.Levels[i] = ls
	}
	return s
}

// NodeSummary is one node's ledger in report form: every joule the node
// burned sits in exactly one Levels[].EnergyJ cell or in UncoreJ, and
// every attributed violation in exactly one (level, cause) cell.
type NodeSummary struct {
	App     string         `json:"app"`
	Node    int            `json:"node"`
	Drops   uint64         `json:"drops"`
	UncoreJ float64        `json:"uncore_joules"`
	Levels  []LevelSummary `json:"levels"`
}

// LevelSummary is one frequency level's row in a NodeSummary.
type LevelSummary struct {
	Level       int     `json:"level"`
	EnergyJ     float64 `json:"energy_joules"`
	Completions uint64  `json:"completions"`
	Queueing    uint64  `json:"violations_queueing"`
	Mispredict  uint64  `json:"violations_mispredict"`
	Delay       uint64  `json:"violations_decision_delay"`
}

// EnergyJ sums the node's attributed joules, uncore included.
func (n NodeSummary) EnergyJ() float64 {
	j := n.UncoreJ
	for _, l := range n.Levels {
		j += l.EnergyJ
	}
	return j
}

// Violations sums the node's attributed violations.
func (n NodeSummary) Violations() uint64 {
	var v uint64
	for _, l := range n.Levels {
		v += l.Queueing + l.Mispredict + l.Delay
	}
	return v
}

// Completions sums the node's completions.
func (n NodeSummary) Completions() uint64 {
	var c uint64
	for _, l := range n.Levels {
		c += l.Completions
	}
	return c
}
