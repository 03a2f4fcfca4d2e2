package sim

// calendarQueue is a dynamic calendar queue (R. Brown, CACM 1988): an open
// hash of unsorted buckets indexed by event time, scanned like the days of
// a calendar. With the bucket width tracking the mean gap between the
// events about to fire, schedule and fire are O(1) amortized at any queue
// size — the property that lets fleet sweeps hold tens of thousands of
// pending events without the O(log n) sift of a binary heap.
//
// The width is estimated from the head of the queue, not its whole span
// (see estimateWidth): a simulator's population is bimodal — completions
// and arrivals microseconds away, monitor ticks and the horizon seconds
// away — and a width averaged over both puts every near-term event in one
// bucket, turning each pop into a linear scan. Three triggers re-estimate
// it: a size change (grow/shrink), a sparse calendar (repeated empty
// years, see direct) and a crowded one (scans comparing more than a
// handful of same-day events, see closeWindow).
//
// Exact-ordering contract: pop returns the global minimum by (At, seq).
// Two events with equal At always compute the same absolute bucket number
// (babs is derived from At alone), so ties are resolved inside one bucket
// scan by seq. Bucket membership for the year mechanism is decided by the
// stored babs — never by re-deriving boundaries from floats — so the scan
// can never disagree with the placement that push performed.
type calendarQueue struct {
	buckets [][]*Event
	// min is the peek cache: when non-nil it points at the global minimum
	// by (At, seq), letting pops and repeated failed peeks (Run calls that
	// fire nothing) skip the bucket scan. nil means unknown. push keeps it
	// current; unlink invalidates it; a scan that stops at an event past
	// until repopulates it.
	min *Event
	// solo holds the sole pending event while n==1 and the event was
	// pushed onto an empty queue, bypassing the bucket machinery entirely
	// (the schedule→fire and schedule→cancel cycles of a drained engine
	// are then as cheap as a one-element heap). Invariant: solo != nil
	// implies n == 1 and all buckets empty; the next push demotes it into
	// the buckets first.
	solo   *Event
	mask   int     // len(buckets)-1; bucket count is a power of two
	n      int     // pending events
	w      Time    // bucket width (virtual seconds per calendar day)
	invW   float64 // 1/w, so the push path multiplies instead of divides
	curAbs int64   // absolute bucket number the pop scan resumes from
	lastAt Time    // At of the last popped event (scan floor after resize)
	direct int     // consecutive pops that fell through to direct search

	// Self-report, cumulative: bucket scans that found a minimum, the
	// same-day events those scans compared, and calendar rebuilds. The
	// crowded trigger works off the first two.
	scans    uint64
	compares uint64
	rebuilds uint64
	// The crowded trigger judges scans a window at a time. winEnd and
	// winCmp are the scan count that closes the current window and the
	// compare count that opened it; window is its length and prevMean the
	// mean that caused the last re-estimate (see closeWindow).
	winEnd   uint64
	winCmp   uint64
	window   uint64
	prevMean float64
}

const (
	minCalBuckets = 4
	maxCalBuckets = 1 << 17
	calWidthMin   = Time(1e-9)
	// calSample bounds the head-of-queue sample the width is estimated
	// from (Brown: 5 + n/10 events, at most 25).
	calSample = 25
	// calCrowded is the mean same-day compares per scan above which a
	// window counts as crowded; a well-sized day holds about three events.
	calCrowded   = 4
	calWindow    = 16      // scans per crowded-trigger window before back-off
	calWindowMax = 1 << 16 // and after: bounds how long a crowded regime can go unseen
)

func newCalendarQueue() *calendarQueue {
	return &calendarQueue{
		buckets: make([][]*Event, minCalBuckets),
		mask:    minCalBuckets - 1,
		w:       Millisecond, // the simulator's natural timescale; resizes re-estimate
		invW:    1 / float64(Millisecond),
		winEnd:  calWindow,
		window:  calWindow,
	}
}

// absOf maps a timestamp to its absolute (non-wrapped) bucket number.
// Monotone nondecreasing in at, which is what the ordering proof needs.
func (q *calendarQueue) absOf(at Time) int64 {
	f := float64(at) * q.invW
	if f >= 9e15 { // keep well inside int64 (and float64-exact integers)
		f = 9e15
	}
	if f < 0 {
		f = 0
	}
	return int64(f)
}

func (q *calendarQueue) insert(ev *Event) {
	abs := q.absOf(ev.At)
	ev.babs = abs
	// Run(until) with until < now rewinds the engine clock, so a push can
	// land before the last popped timestamp; pull the scan floor back so
	// the pop scan cannot skip it.
	if abs < q.curAbs {
		q.curAbs = abs
	}
	if ev.At < q.lastAt {
		q.lastAt = ev.At
	}
	b := int(abs) & q.mask
	bl := q.buckets[b]
	ev.index = len(bl)
	q.buckets[b] = append(bl, ev)
	q.n++
	// Lazy peek cache: only kept current once a scan has populated it, so
	// the push/cancel cycle never pays the extra store.
	if q.min != nil && eventLess(ev, q.min) {
		q.min = ev
	}
}

func (q *calendarQueue) push(ev *Event) {
	if q.n == 0 {
		ev.index = 0 // a non-negative index marks the event cancellable
		q.solo = ev
		q.n = 1
		return
	}
	if s := q.solo; s != nil {
		q.solo = nil
		q.n--
		q.insert(s)
	}
	q.insert(ev)
	if nb := q.mask + 1; q.n > nb*2 && nb < maxCalBuckets {
		q.resize(nb * 2)
	}
}

// unlink removes a node from its bucket by swap-remove (bucket order is
// irrelevant: pop always scans for the minimum).
func (q *calendarQueue) unlink(ev *Event) {
	b := int(ev.babs) & q.mask
	bl := q.buckets[b]
	last := len(bl) - 1
	if i := ev.index; i != last {
		moved := bl[last]
		bl[i] = moved
		moved.index = i
	}
	bl[last] = nil
	q.buckets[b] = bl[:last]
	ev.index = -1
	q.n--
	if ev == q.min {
		q.min = nil
	}
}

func (q *calendarQueue) remove(ev *Event) {
	if ev == q.solo {
		q.solo = nil
		q.n = 0
		ev.index = -1
		return
	}
	q.unlink(ev)
	if nb := q.mask + 1; q.n < nb/8 && nb > minCalBuckets {
		q.resize(nb / 2)
	}
}

func (q *calendarQueue) popLE(until Time) *Event {
	if s := q.solo; s != nil {
		if s.At > until {
			return nil
		}
		q.solo = nil
		q.n = 0
		s.index = -1
		q.lastAt = s.At // scan floor for later pushes; curAbs stays a safe lower bound
		return s
	}
	if m := q.min; m != nil {
		if m.At > until {
			return nil
		}
		q.curAbs = m.babs
		q.direct = 0
		return q.take(m)
	}
	if q.n == 0 {
		return nil
	}
	if q.n > 2 {
		nb := q.mask + 1
		abs := q.curAbs
		for i := 0; i < nb; i++ {
			if bl := q.buckets[int(abs)&q.mask]; len(bl) > 0 {
				var best, best2 *Event
				day := 0
				for _, ev := range bl {
					// Same-year events only: a bucket also holds events one
					// or more full calendar years ahead.
					if ev.babs != abs {
						continue
					}
					day++
					if best == nil || eventLess(ev, best) {
						best2, best = best, ev
					} else if best2 == nil || eventLess(ev, best2) {
						best2 = ev
					}
				}
				if best != nil {
					if best.At > until {
						q.min = best // cache for the next peek
						return nil
					}
					q.curAbs = abs
					q.direct = 0
					q.scans++
					q.compares += uint64(day)
					ev := q.take(best)
					// The runner-up in this day is the new global minimum
					// (same-year bucket members precede every later day), so
					// the next pop skips the scan entirely. One scan, two
					// pops.
					q.min = best2
					if q.scans >= q.winEnd {
						q.closeWindow()
					}
					return ev
				}
			}
			abs++
		}
		// A whole year of empty days: the pending events are sparse
		// relative to the bucket width.
		q.direct++
	}
	// Direct search: find the global minimum and jump the calendar to it.
	// Tiny queues land here unconditionally (a scan over <= minCalBuckets*2
	// buckets beats the year mechanism); larger ones only after a full
	// empty year.
	var best, best2 *Event
	for _, bl := range q.buckets {
		for _, ev := range bl {
			if best == nil || eventLess(ev, best) {
				best2, best = best, ev
			} else if best2 == nil || eventLess(ev, best2) {
				best2 = ev
			}
		}
	}
	if best == nil {
		return nil
	}
	if best.At > until {
		q.min = best // cache for the next peek
		return nil
	}
	q.curAbs = best.babs
	ev := q.take(best)
	q.min = best2 // runner-up: the next pop's minimum, scan-free
	if q.direct > 8 {
		// Repeated empty years mean the days are too narrow for the gaps
		// at the head of the queue; re-estimate at the current size.
		q.direct = 0
		if w, ok := q.estimateWidth(); ok && w > q.w {
			q.rebuild(q.mask+1, w)
		}
	}
	return ev
}

// take pops a specific node: unlink plus scan-floor bookkeeping, and the
// shrink check that keeps the load factor near one as the queue drains.
func (q *calendarQueue) take(ev *Event) *Event {
	q.unlink(ev)
	q.lastAt = ev.At
	if nb := q.mask + 1; q.n < nb/8 && nb > minCalBuckets {
		q.resize(nb / 2)
	}
	return ev
}

// closeWindow ends one window of the crowded trigger. If its scans
// averaged more than calCrowded same-day compares, the near-term events
// have outgrown their days — n is steady, so neither size trigger will
// fire — and the width is re-estimated at the current size. When the
// previous re-estimate did not lower the mean by a quarter the window
// doubles, and stays doubled through calm windows: equal-At ties share a
// day at any width, so a burst of them (every node's monitor ticking at
// one instant) or a standing pile must cost O(log pops) rebuilds, not one
// per window. Only a re-estimate that helped resets it.
func (q *calendarQueue) closeWindow() {
	if mean := float64(q.compares-q.winCmp) / float64(q.window); mean > calCrowded {
		if q.prevMean > 0 && mean > 0.75*q.prevMean {
			q.window = min(2*q.window, calWindowMax)
		} else {
			q.window = calWindow
		}
		q.prevMean = mean
		if w, ok := q.estimateWidth(); ok && w < q.w {
			q.rebuild(q.mask+1, w)
		}
	}
	q.winCmp = q.compares
	q.winEnd = q.scans + q.window
}

// estimateWidth is Brown's rule: sample the earliest few pending events,
// average the gaps between them, discard gaps more than twice that average
// (the jump from the near-term cluster to the next timer) and make a day
// three times the average of the rest. Equal-At ties need one amendment:
// their zero gaps say nothing about spacing, so the discard threshold is
// taken over the positive gaps only — else a few ten-way ties drag the
// average down until every real gap looks like an outlier — while the
// final average still counts them, which sizes a day for the events it
// will hold. The sample is kept by bounded insertion into a small sorted
// array during one pass over the buckets: no sort of the population and no
// allocation. It reports false when the sample has no positive gap (fewer
// than two events, or all at one instant).
func (q *calendarQueue) estimateWidth() (Time, bool) {
	var head [calSample]Time
	k, m := min(q.n, 5+q.n/10, calSample), 0
	for _, bl := range q.buckets {
		for _, ev := range bl {
			at, i := ev.At, m
			if m < k {
				m++
			} else if at < head[k-1] {
				i = k - 1
			} else {
				continue
			}
			for ; i > 0 && head[i-1] > at; i-- {
				head[i] = head[i-1]
			}
			head[i] = at
		}
	}
	positive := 0
	for i := 1; i < m; i++ {
		if head[i] > head[i-1] {
			positive++
		}
	}
	if positive == 0 {
		return 0, false
	}
	limit := 2 * float64(head[m-1]-head[0]) / float64(positive)
	var sum float64
	kept := 0
	for i := 1; i < m; i++ {
		if g := float64(head[i] - head[i-1]); g <= limit {
			sum += g
			kept++
		}
	}
	return max(Time(3*sum/float64(kept)), calWidthMin), true
}

// resize rebuilds the calendar with nb buckets after a size change, taking
// the occasion to re-estimate the width.
func (q *calendarQueue) resize(nb int) {
	w, ok := q.estimateWidth()
	if !ok {
		w = q.w
	}
	q.rebuild(nb, w)
}

// rebuild re-files every pending event into nb buckets of width w.
func (q *calendarQueue) rebuild(nb int, w Time) {
	q.rebuilds++
	q.w = w
	q.invW = 1 / float64(w)
	old := q.buckets
	q.buckets = make([][]*Event, nb)
	q.mask = nb - 1
	q.n = 0
	q.curAbs = q.absOf(q.lastAt)
	for _, bl := range old {
		for _, ev := range bl {
			q.insert(ev)
		}
	}
}

func (q *calendarQueue) len() int { return q.n }
