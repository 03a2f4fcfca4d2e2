package live

import (
	"sync/atomic"
	"time"

	"retail/internal/cpu"
	"retail/internal/policy"
)

// dvfsRetries reads the DVFS retry budget and initial backoff from the
// serializable degradation budgets: a zero count selects 3 retries and a
// negative one none (fail straight to the pin-at-max fallback); a zero
// backoff selects 200µs, doubling per attempt. Kept small: a DVFS write
// is microseconds and the worker is holding a request.
func dvfsRetries(dp policy.DegradeParams) (int, time.Duration) {
	n, backoff := dp.MaxDVFSRetries, time.Duration(dp.RetryBackoff*1e9)
	switch {
	case n == 0:
		n = 3
	case n < 0:
		n = 0
	}
	if backoff <= 0 {
		backoff = 200 * time.Microsecond
	}
	return n, backoff
}

// DegradeCounts is a snapshot of the runtime's recovery work, the
// numbers the degradation report asserts are nonzero under each chaos
// plan.
type DegradeCounts struct {
	DVFSWriteErrors uint64 // failed write attempts (incl. failed retries)
	DVFSRetries     uint64 // retry attempts after a failure
	DVFSFallbacks   uint64 // retry budgets exhausted → pinned at max
	DVFSCoalesced   uint64 // writes elided because the hardware already held the level
	Shed            uint64 // arrivals refused by admission control
	DeadlineDrops   uint64 // dequeued requests already past deadline
}

// degradeState is the server-side counter block (atomics: workers and
// the enqueue path update it concurrently).
type degradeState struct {
	writeErrors atomic.Uint64
	retries     atomic.Uint64
	fallbacks   atomic.Uint64
	coalesced   atomic.Uint64
	shed        atomic.Uint64
	deadline    atomic.Uint64
}

func (d *degradeState) snapshot() DegradeCounts {
	return DegradeCounts{
		DVFSWriteErrors: d.writeErrors.Load(),
		DVFSRetries:     d.retries.Load(),
		DVFSFallbacks:   d.fallbacks.Load(),
		DVFSCoalesced:   d.coalesced.Load(),
		Shed:            d.shed.Load(),
		DeadlineDrops:   d.deadline.Load(),
	}
}

// appliedState tracks, per worker, the frequency level the runtime
// believes the hardware holds (updated only on successful writes) and
// whether the worker is currently pinned at max by the fallback.
type appliedState struct {
	lvl    cpu.Level
	known  bool
	pinned bool
}

// DegradeCounts returns the recovery-work counters.
func (s *Server) DegradeCounts() DegradeCounts { return s.deg.snapshot() }

// PinnedWorkers returns how many workers the DVFS fallback currently
// pins at max frequency.
func (s *Server) PinnedWorkers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, a := range s.applied {
		if a.pinned {
			n++
		}
	}
	return n
}

// AppliedLevel returns the last successfully written level for a worker
// and whether the runtime knows the hardware state (false before the
// first successful write or after an unrecovered write failure).
func (s *Server) AppliedLevel(worker int) (cpu.Level, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if worker < 0 || worker >= len(s.applied) {
		return 0, false
	}
	return s.applied[worker].lvl, s.applied[worker].known
}

// applyLevel drives the backend to lvl with bounded retry-with-backoff;
// on exhaustion it falls back to pinning the worker at max frequency —
// the paper's safety posture (never sacrifice QoS for power). It returns
// the level the hardware is believed to run at (the last known level when
// even the fallback failed) so the executor models the actual speed, not
// the wish.
func (s *Server) applyLevel(worker int, lvl cpu.Level) cpu.Level {
	// Write coalescing: when the last successful write already put the
	// hardware at lvl (and no fallback pin needs clearing), the backend
	// pass is a provable no-op — skip it. Under a settled policy the
	// common case is a re-decision of the standing level, so this turns
	// most per-request DVFS work into a counter bump; any failure path
	// clears `known`, which re-enables real writes until one succeeds.
	if !s.writeThrough {
		s.mu.Lock()
		if a := s.applied[worker]; a.known && !a.pinned && a.lvl == lvl {
			s.mu.Unlock()
			s.deg.coalesced.Add(1)
			return lvl
		}
		s.mu.Unlock()
	}
	backoff := s.retryBackoff
	for attempt := 0; attempt <= s.retries; attempt++ {
		if attempt > 0 {
			s.deg.retries.Add(1)
			s.metrics.incDVFSRetry()
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := s.cfg.Backend.SetLevel(worker, lvl); err == nil {
			s.noteApplied(worker, lvl, false)
			return lvl
		}
		s.deg.writeErrors.Add(1)
		s.metrics.incDVFSWriteError()
	}
	// Retry budget exhausted: pin at max frequency. QoS is protected at
	// the cost of power; the pin clears on the next successful write.
	s.deg.fallbacks.Add(1)
	s.metrics.incDVFSFallback()
	max := s.grid.MaxLevel()
	for attempt := 0; attempt <= s.retries; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		if err := s.cfg.Backend.SetLevel(worker, max); err == nil {
			s.noteApplied(worker, max, true)
			return max
		}
		s.deg.writeErrors.Add(1)
		s.metrics.incDVFSWriteError()
	}
	// Even the pin failed: the hardware is at an unknown frequency. Keep
	// the last known level for pacing and surface the unknown state.
	s.mu.Lock()
	last := s.applied[worker].lvl
	if !s.applied[worker].known {
		last = max // never written successfully: cores start at max
	}
	s.applied[worker].known = false
	s.applied[worker].pinned = true
	pinned := s.pinnedLocked()
	s.mu.Unlock()
	s.metrics.setPinned(pinned)
	return last
}

// noteApplied records a successful write and maintains the pinned gauge.
func (s *Server) noteApplied(worker int, lvl cpu.Level, pinned bool) {
	s.mu.Lock()
	a := &s.applied[worker]
	changed := a.pinned != pinned
	a.lvl, a.known, a.pinned = lvl, true, pinned
	n := s.pinnedLocked()
	s.mu.Unlock()
	if changed {
		s.metrics.setPinned(n)
	}
}

func (s *Server) pinnedLocked() int {
	n := 0
	for _, a := range s.applied {
		if a.pinned {
			n++
		}
	}
	return n
}
