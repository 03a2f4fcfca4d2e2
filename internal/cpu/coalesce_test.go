package cpu

import (
	"math/rand"
	"testing"

	"retail/internal/sim"
)

// TestSameTickWriteCoalescing pins the simulator's DVFS batching
// semantics: N same-tick writes to one core collapse into at most one
// transition event (last write wins), and the write counter exposes the
// coalescing dividend the live SysfsBackend realizes with its batched
// SetLevels pass.
func TestSameTickWriteCoalescing(t *testing.T) {
	e := sim.NewEngine()
	g := DefaultGrid()
	c := NewCore(0, g, DefaultPowerModel(g), DefaultTransitionModel(), rand.New(rand.NewSource(1)))

	// Same-tick burst: three writes, only the last one matters.
	c.SetLevel(e, 3)
	c.SetLevel(e, 5)
	c.SetLevel(e, 5) // exact duplicate of the pending target: fully elided
	e.RunAll()
	if got := e.Fired(); got != 1 {
		t.Fatalf("transition events = %d, want 1 (same-tick writes must coalesce)", got)
	}
	if c.EffectiveLevel() != 5 {
		t.Fatalf("effective = %d, want 5 (last write wins)", c.EffectiveLevel())
	}
	if c.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", c.Transitions())
	}
	if c.DVFSWrites() != 3 {
		t.Fatalf("writes = %d, want 3", c.DVFSWrites())
	}

	// Rewriting the settled level costs nothing at all.
	c.SetLevel(e, 5)
	e.RunAll()
	if e.Fired() != 1 || c.Transitions() != 1 {
		t.Fatalf("no-op rewrite scheduled work: events=%d transitions=%d", e.Fired(), c.Transitions())
	}
	if c.DVFSWrites() != 4 {
		t.Fatalf("writes = %d, want 4", c.DVFSWrites())
	}

	// Socket-level aggregation.
	s := NewSocket(2, g, DefaultPowerModel(g), DefaultTransitionModel(), 1)
	s.Cores[0].SetLevel(e, 1)
	s.Cores[1].SetLevelImmediate(e, 2)
	e.RunAll()
	if s.DVFSWrites() != 2 {
		t.Fatalf("socket writes = %d, want 2", s.DVFSWrites())
	}
	if s.Transitions() != 2 {
		t.Fatalf("socket transitions = %d, want 2", s.Transitions())
	}
}
