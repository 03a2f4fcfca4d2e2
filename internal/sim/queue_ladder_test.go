package sim

import (
	"math"
	"sort"
)

// ladderQueue is a two-tier ladder queue: a small sorted bottom rung that
// pops are served from, fed in chunks from an unsorted overflow tier that
// absorbs far-future inserts in O(1). It trades the calendar queue's
// width estimation for periodic sort-and-split respawns. Test-only: a
// second ordering reference beside the heap, built on a different idea
// from either it or the calendar, and the benchmark competitor (see
// queue_bench_test.go).
//
// Invariant: every event in the overflow tier is strictly greater (by
// (At, seq)) than every event in the bottom rung. push preserves it by
// routing any event with At >= thresh to the overflow (its seq is fresh,
// hence maximal, so equal-At routing is safe); spill and respawn preserve
// it by splitting a fully sorted run.
type ladderQueue struct {
	bottom []*Event // sorted ascending (At, seq); live window is [head:]
	head   int
	over   []*Event // unsorted; every entry has At >= thresh
	thresh Time
	n      int
}

// ladder tier tags stored in Event.babs.
const (
	ladderBottom = 0
	ladderOver   = 1
)

// ladderChunk is the respawn chunk size and half the bottom-rung bound.
const ladderChunk = 64

func newLadderQueue() *ladderQueue {
	return &ladderQueue{thresh: Time(math.Inf(1))}
}

func (q *ladderQueue) push(ev *Event) {
	q.n++
	if ev.At >= q.thresh {
		ev.babs = ladderOver
		ev.index = len(q.over)
		q.over = append(q.over, ev)
		return
	}
	q.insertBottom(ev)
	if len(q.bottom)-q.head > 2*ladderChunk {
		q.spill()
	}
}

// insertBottom places ev into the sorted bottom rung. The new event's seq
// is maximal among pending events, so among equal-At entries it always
// sorts last — a plain upper-bound search on At suffices.
func (q *ladderQueue) insertBottom(ev *Event) {
	ev.babs = ladderBottom
	live := q.bottom[q.head:]
	pos := sort.Search(len(live), func(i int) bool { return live[i].At > ev.At })
	if pos == 0 && q.head > 0 {
		q.head--
		q.bottom[q.head] = ev
		ev.index = q.head
		return
	}
	abs := q.head + pos
	q.bottom = append(q.bottom, nil)
	copy(q.bottom[abs+1:], q.bottom[abs:])
	q.bottom[abs] = ev
	for i := abs; i < len(q.bottom); i++ {
		q.bottom[i].index = i
	}
}

// spill moves the upper part of an oversized bottom rung to the overflow
// tier and tightens thresh to the split point.
func (q *ladderQueue) spill() {
	keep := q.head + ladderChunk
	q.thresh = q.bottom[keep].At
	for i := keep; i < len(q.bottom); i++ {
		ev := q.bottom[i]
		ev.babs = ladderOver
		ev.index = len(q.over)
		q.over = append(q.over, ev)
		q.bottom[i] = nil
	}
	q.bottom = q.bottom[:keep]
}

// respawn refills an empty bottom rung with the globally smallest chunk of
// the overflow tier.
func (q *ladderQueue) respawn() {
	sort.Slice(q.over, func(i, j int) bool { return eventLess(q.over[i], q.over[j]) })
	take := ladderChunk
	if take > len(q.over) {
		take = len(q.over)
	}
	q.bottom = q.bottom[:0]
	q.head = 0
	for i, ev := range q.over[:take] {
		ev.babs = ladderBottom
		ev.index = i
		q.bottom = append(q.bottom, ev)
	}
	rest := q.over[take:]
	copy(q.over, rest)
	for i := len(rest); i < len(q.over); i++ {
		q.over[i] = nil
	}
	q.over = q.over[:len(rest)]
	if len(q.over) == 0 {
		q.thresh = Time(math.Inf(1))
	} else {
		q.thresh = q.over[0].At
		for i, ev := range q.over {
			ev.index = i
			if ev.At < q.thresh {
				q.thresh = ev.At
			}
		}
	}
}

func (q *ladderQueue) popLE(until Time) *Event {
	if q.n == 0 {
		return nil
	}
	if q.head == len(q.bottom) {
		q.respawn()
	}
	ev := q.bottom[q.head]
	if ev.At > until {
		return nil
	}
	q.bottom[q.head] = nil
	q.head++
	if q.head == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.head = 0
	}
	ev.index = -1
	q.n--
	return ev
}

func (q *ladderQueue) remove(ev *Event) {
	q.n--
	if ev.babs == ladderOver {
		last := len(q.over) - 1
		if i := ev.index; i != last {
			moved := q.over[last]
			q.over[i] = moved
			moved.index = i
		}
		q.over[last] = nil
		q.over = q.over[:last]
		ev.index = -1
		return
	}
	pos := ev.index
	if pos == q.head {
		q.bottom[q.head] = nil
		q.head++
	} else {
		copy(q.bottom[pos:], q.bottom[pos+1:])
		q.bottom[len(q.bottom)-1] = nil
		q.bottom = q.bottom[:len(q.bottom)-1]
		for i := pos; i < len(q.bottom); i++ {
			q.bottom[i].index = i
		}
	}
	if q.head == len(q.bottom) {
		q.bottom = q.bottom[:0]
		q.head = 0
	}
	ev.index = -1
}

func (q *ladderQueue) len() int { return q.n }
