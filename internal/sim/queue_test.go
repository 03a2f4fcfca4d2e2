package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// heapQueue is the original container/heap implementation — the ordering
// oracle the calendar queue is differential-tested against. ev.index is
// the heap slot.
type heapQueue struct {
	h eventHeap
}

type eventHeap []*Event

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return eventLess(h[i], h[j]) }
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.index = -1
	*h = old[:n-1]
	return e
}

func (q *heapQueue) push(ev *Event) { heap.Push(&q.h, ev) }

func (q *heapQueue) popLE(until Time) *Event {
	if len(q.h) == 0 || q.h[0].At > until {
		return nil
	}
	return heap.Pop(&q.h).(*Event)
}

func (q *heapQueue) remove(ev *Event) { heap.Remove(&q.h, ev.index) }

func (q *heapQueue) len() int { return len(q.h) }

// queueKind names one eventQueue implementation for the tests and
// benchmarks that run against all of them: the production calendar and the
// two test-only references.
type queueKind struct {
	name string
	new  func() eventQueue
}

var (
	calendarKind = queueKind{"calendar", func() eventQueue { return newCalendarQueue() }}
	heapKind     = queueKind{"heap", func() eventQueue { return &heapQueue{} }}
	ladderKind   = queueKind{"ladder", func() eventQueue { return newLadderQueue() }}
	queueKinds   = []queueKind{calendarKind, heapKind, ladderKind}
)

func (k queueKind) engine() *Engine { return &Engine{q: k.new()} }

// matchHeap runs one seeded scenario on the heap and on every other kind
// and requires identical logs.
func matchHeap[T comparable](t *testing.T, what string, run func(queueKind) []T) {
	t.Helper()
	want := run(heapKind)
	for _, k := range []queueKind{calendarKind, ladderKind} {
		got := run(k)
		if len(got) != len(want) {
			t.Fatalf("%s %s: %d log entries, heap has %d", what, k.name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s %s diverges at %d: %v vs heap %v", what, k.name, i, got[i], want[i])
			}
		}
	}
}

// queueTrace drives one random schedule/cancel/run interleaving against an
// engine and records the exact fire sequence. The same seeded script runs
// against every queue kind; the heap (the original implementation) is the
// ordering oracle.
type queueTraceOp struct {
	kind   int // 0 schedule, 1 cancel, 2 run-until
	at     float64
	cancel int // index into previously scheduled refs
}

func randomScript(seed int64, n int) []queueTraceOp {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]queueTraceOp, n)
	for i := range ops {
		switch k := rng.Intn(10); {
		case k < 6:
			// Mix coarse and fine timestamps so equal-At ties are common
			// and bucket widths see multi-scale gaps.
			at := rng.Float64() * 50
			if rng.Intn(3) == 0 {
				at = float64(rng.Intn(20)) // heavy tie traffic
			}
			ops[i] = queueTraceOp{kind: 0, at: at}
		case k < 8:
			ops[i] = queueTraceOp{kind: 1, cancel: rng.Int()}
		default:
			ops[i] = queueTraceOp{kind: 2, at: rng.Float64() * 60}
		}
	}
	return ops
}

// runScript replays a script and returns the fire log: "<id>@<time>" per
// fired event plus each ref's Cancelled() report right after cancelling.
func runScript(k queueKind, ops []queueTraceOp) []string {
	e := k.engine()
	var log []string
	var refs []EventRef
	id := 0
	for _, op := range ops {
		switch op.kind {
		case 0:
			n := id
			id++
			at := Time(op.at)
			refs = append(refs, e.At(at, "p", func(en *Engine) {
				log = append(log, fmt.Sprintf("%d@%v", n, en.Now()))
			}))
		case 1:
			if len(refs) == 0 {
				continue
			}
			ref := refs[op.cancel%len(refs)]
			e.Cancel(ref)
			log = append(log, fmt.Sprintf("cancelled=%v", ref.Cancelled()))
		case 2:
			e.Run(Time(op.at))
		}
	}
	e.RunAll()
	log = append(log, fmt.Sprintf("fired=%d now=%v pending=%d", e.Fired(), e.Now(), e.Pending()))
	return log
}

// TestQueueKindsMatchHeap is the queue's property test: for hundreds of
// random schedule/cancel/run interleavings, the calendar and ladder queues
// must reproduce the heap's fire sequence exactly — same events, same
// times, same tie order, same Cancelled() reports.
func TestQueueKindsMatchHeap(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		script := randomScript(seed, 200)
		matchHeap(t, fmt.Sprintf("seed %d", seed), func(k queueKind) []string { return runScript(k, script) })
	}
}

// TestQueueKindsMatchHeapNested adds callbacks that schedule and cancel
// further events (completions that reschedule, stage-1 interrupts), again
// differential against the heap.
func TestQueueKindsMatchHeapNested(t *testing.T) {
	run := func(k queueKind, seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		e := k.engine()
		var log []string
		var pending []EventRef
		var tick func(en *Engine)
		n := 0
		tick = func(en *Engine) {
			log = append(log, fmt.Sprintf("t=%v", en.Now()))
			if n >= 500 {
				return
			}
			n++
			switch rng.Intn(4) {
			case 0: // steady arrival chain
				pending = append(pending, en.After(Duration(rng.ExpFloat64()*0.01), "a", tick))
			case 1: // schedule then immediately reschedule (cancel+schedule)
				ref := en.After(Duration(rng.Float64()), "b", tick)
				en.Cancel(ref)
				pending = append(pending, en.After(Duration(rng.Float64()*0.5), "b2", tick))
			case 2: // cancel a random outstanding event
				if len(pending) > 0 {
					en.Cancel(pending[rng.Intn(len(pending))])
				}
				pending = append(pending, en.After(0, "c", tick)) // same-time tie
			default: // burst of ties at one instant
				at := en.Now() + Duration(rng.Float64()*0.1)
				for i := 0; i < 3; i++ {
					pending = append(pending, en.At(at, "d", tick))
				}
			}
		}
		e.At(0, "seed", tick)
		e.RunAll()
		log = append(log, fmt.Sprintf("fired=%d", e.Fired()))
		return log
	}
	for seed := int64(0); seed < 40; seed++ {
		matchHeap(t, fmt.Sprintf("seed %d", seed), func(k queueKind) []string { return run(k, seed) })
	}
}

// fleetShape is the event population a fleet run actually holds, which
// the uniform scripts above never produce: two time scales at once. Most
// pending events are in-flight completions microseconds to a millisecond
// away, each re-armed as it fires and now and then moved by a frequency
// change (cancel and reschedule); the rest are periodic timers (monitor
// ticks) tenths of a second to seconds away and one horizon event. Every
// chain and timer has exactly one event pending, so the queue holds
// chains + timers + 1 throughout.
type fleetShape struct {
	rng    *rand.Rand
	do     func(*Engine, any) // s.fire, bound once so re-arming allocates nothing
	chains []*shapeSource
	left   int          // fires until the engine is stopped
	log    *[]shapeFire // nil in benchmarks
}

type shapeSource struct {
	id    int
	mean  Duration // chain: mean gap; timer: period
	timer bool
	ref   EventRef
}

type shapeFire struct {
	id int
	at Time
}

const (
	shapeTimers  = 20
	shapeHorizon = Time(3600)
)

func newFleetShape(e *Engine, seed int64, chains int, log *[]shapeFire) *fleetShape {
	s := &fleetShape{rng: rand.New(rand.NewSource(seed)), log: log}
	s.do = s.fire
	for i := 0; i < chains+shapeTimers; i++ {
		c := &shapeSource{id: i, timer: i >= chains}
		if c.timer {
			c.mean = Duration(0.1 + 1.9*s.rng.Float64())
			c.ref = e.AfterCall(c.mean*Duration(s.rng.Float64()), "tick", s.do, c)
		} else {
			c.mean = 10 * Microsecond * Duration(math.Pow(100, s.rng.Float64()))
			s.chains = append(s.chains, c)
			s.arm(e, c)
		}
	}
	e.At(shapeHorizon, "horizon", func(en *Engine) { en.Stop() })
	return s
}

func (s *fleetShape) arm(e *Engine, c *shapeSource) {
	c.ref = e.AfterCall(Duration(s.rng.ExpFloat64())*c.mean, "done", s.do, c)
}

func (s *fleetShape) fire(e *Engine, arg any) {
	c := arg.(*shapeSource)
	if s.log != nil {
		*s.log = append(*s.log, shapeFire{c.id, e.Now()})
	}
	if s.left--; s.left <= 0 {
		e.Stop()
	}
	if c.timer {
		c.ref = e.AfterCall(c.mean, "tick", s.do, c)
		return
	}
	s.arm(e, c)
	if s.rng.Intn(8) == 0 {
		o := s.chains[s.rng.Intn(len(s.chains))]
		e.Cancel(o.ref)
		s.arm(e, o)
	}
}

// run fires n more events.
func (s *fleetShape) run(e *Engine, n int) {
	s.left = n
	e.Run(shapeHorizon)
}

// shapeHolds are the two queue sizes the shape is tested at: one fleet
// cell's (≈ 40 pending) and a large fleet's (≈ 2 000).
var shapeHolds = []struct {
	name   string
	chains int
	fires  int
}{
	{"hold40", 19, 60000}, // long enough (≈ 0.15 virtual s) for timers to fire
	{"hold2k", 1979, 30000},
}

// TestQueueKindsMatchHeapFleetShape is the differential test on the
// simulator's own shape, where the calendar's width estimate and its
// re-estimation triggers do their work.
func TestQueueKindsMatchHeapFleetShape(t *testing.T) {
	for _, h := range shapeHolds {
		for seed := int64(0); seed < 4; seed++ {
			matchHeap(t, fmt.Sprintf("%s seed %d", h.name, seed), func(k queueKind) []shapeFire {
				e := k.engine()
				var log []shapeFire
				s := newFleetShape(e, seed, h.chains, &log)
				s.run(e, h.fires)
				if want := h.chains + shapeTimers + 1; e.Pending() != want {
					t.Fatalf("%s holds %d pending, want %d", k.name, e.Pending(), want)
				}
				return log
			})
		}
	}
}

// TestCalendarScansStayShortOnFleetShape pins the property the width rule
// exists for: with a bimodal population a pop looks at a handful of
// events, not at every near-term one. A width averaged over the whole
// span (the previous rule) puts all the completions in one day and fails
// this at ≈ 17 compares per scan.
func TestCalendarScansStayShortOnFleetShape(t *testing.T) {
	for _, h := range shapeHolds {
		for seed := int64(0); seed < 4; seed++ {
			q := newCalendarQueue()
			e := &Engine{q: q}
			s := newFleetShape(e, seed, h.chains, nil)
			s.run(e, 5000) // warm-up: the population forms and the width settles
			scans, compares := q.scans, q.compares
			s.run(e, 20000)
			scans, compares = q.scans-scans, q.compares-compares
			mean := float64(compares) / float64(scans)
			t.Logf("%s seed %d: %.2f same-day compares per scan, %d rebuilds", h.name, seed, mean, q.rebuilds)
			if scans == 0 || mean > 4 {
				t.Errorf("%s seed %d: %d scans compared %d same-day events, %.2f each; want <= 4 (width %v, %d buckets)",
					h.name, seed, scans, compares, mean, q.w, q.mask+1)
			}
		}
	}
}

// TestCalendarTiesDoNotThrash: a standing pile of events at one instant
// shares a day at any width, so the crowded trigger cannot fix it and must
// back off — O(log pops) rebuilds, not one per window of 16 scans.
func TestCalendarTiesDoNotThrash(t *testing.T) {
	const pile, pops = 10000, 4000
	q := newCalendarQueue()
	e := &Engine{q: q}
	rng := rand.New(rand.NewSource(1))
	left := pops
	var tie func(*Engine)
	tie = func(en *Engine) {
		if left--; left == 0 {
			en.Stop() // with the pile still standing
		}
		en.At(1, "tie", tie) // the pile refills as it is popped
		if rng.Intn(4) == 0 {
			en.After(Duration(rng.ExpFloat64())*Microsecond, "churn", func(*Engine) {})
		}
	}
	for i := 0; i < pile; i++ {
		e.At(1, "tie", tie)
	}
	filled := q.rebuilds
	e.Run(1)
	rebuilds := q.rebuilds - filled
	t.Logf("%d rebuilds over %d scans", rebuilds, q.scans)
	if limit := uint64(2 * bits.Len(pops)); left != 0 || rebuilds > limit {
		t.Errorf("%d rebuilds while popping %d events (%d left) off a standing pile of %d ties; want <= %d",
			rebuilds, pops, left, pile, limit)
	}
}

// TestCalendarQueueResizeChurn forces the calendar through grow, shrink
// and direct-search recalibration while preserving order.
func TestCalendarQueueResizeChurn(t *testing.T) {
	e := calendarKind.engine()
	var fired []Time
	record := func(en *Engine) { fired = append(fired, en.Now()) }
	// Dense cluster → grow; then sparse outliers → direct searches.
	for i := 0; i < 2000; i++ {
		e.At(Time(float64(i%50)*1e-6), "dense", record)
	}
	for i := 0; i < 10; i++ {
		e.At(Time(1000+float64(i)*3600), "sparse", record)
	}
	e.RunAll()
	if len(fired) != 2010 {
		t.Fatalf("fired %d, want 2010", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("order violated at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}
