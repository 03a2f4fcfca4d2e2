package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// forEachQueue runs one behavioral test against every queue implementation:
// the engine's semantics contract is queue-independent, so the whole suite
// executes once per queue kind (see queue_test.go).
func forEachQueue(t *testing.T, f func(t *testing.T, newEngine func() *Engine)) {
	for _, k := range queueKinds {
		t.Run(k.name, func(t *testing.T) { f(t, k.engine) })
	}
}

func TestEngineOrdering(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		e.At(3, "c", func(*Engine) { got = append(got, 3) })
		e.At(1, "a", func(*Engine) { got = append(got, 1) })
		e.At(2, "b", func(*Engine) { got = append(got, 2) })
		e.RunAll()
		want := []int{1, 2, 3}
		if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
			t.Fatalf("fired order %v, want %v", got, want)
		}
		if e.Fired() != 3 {
			t.Fatalf("Fired() = %d, want 3", e.Fired())
		}
	})
}

func TestEngineFIFOWithinSameTime(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		for i := 0; i < 10; i++ {
			i := i
			e.At(5, "tie", func(*Engine) { got = append(got, i) })
		}
		e.RunAll()
		for i, v := range got {
			if v != i {
				t.Fatalf("tie-break order broken at %d: got %v", i, got)
			}
		}
	})
}

func TestEngineNestedScheduling(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []Time
		e.At(1, "outer", func(en *Engine) {
			got = append(got, en.Now())
			en.After(2, "inner", func(en2 *Engine) {
				got = append(got, en2.Now())
			})
		})
		end := e.RunAll()
		if len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Fatalf("nested events fired at %v, want [1 3]", got)
		}
		if end != 3 {
			t.Fatalf("RunAll returned %v, want 3", end)
		}
	})
}

func TestEngineRunUntil(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		e.At(1, "x", func(*Engine) { fired++ })
		e.At(2, "y", func(*Engine) { fired++ })
		e.At(10, "z", func(*Engine) { fired++ })
		end := e.Run(5)
		if fired != 2 {
			t.Fatalf("fired %d events before t=5, want 2", fired)
		}
		if end != 5 {
			t.Fatalf("Run returned %v, want 5", end)
		}
		if e.Pending() != 1 {
			t.Fatalf("pending = %d, want 1", e.Pending())
		}
		// Event scheduled exactly at the boundary still fires.
		e.At(7, "w", func(*Engine) { fired++ })
		e.Run(7)
		if fired != 3 {
			t.Fatalf("boundary event did not fire; fired=%d", fired)
		}
	})
}

func TestEngineCancel(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := false
		ev := e.At(1, "x", func(*Engine) { fired = true })
		e.Cancel(ev)
		if !ev.Cancelled() {
			t.Fatal("event not marked cancelled")
		}
		e.RunAll()
		if fired {
			t.Fatal("cancelled event fired")
		}
		// Double-cancel and cancelling the zero ref must not panic.
		e.Cancel(ev)
		e.Cancel(EventRef{})
	})
}

// TestCancelFireRecancelSemantics pins the exact disposition contract the
// event pool must preserve: fire → Cancelled()==false and Cancel is a
// no-op; cancel → Cancelled()==true and re-cancel is a no-op; and a stale
// ref whose node has been recycled for a new event can never cancel that
// new event.
func TestCancelFireRecancelSemantics(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()

		// Fired event: not cancelled, cancel-after-fire is a no-op.
		firedCount := 0
		fired := e.At(1, "fired", func(*Engine) { firedCount++ })
		e.RunAll()
		if firedCount != 1 {
			t.Fatalf("fired %d times, want 1", firedCount)
		}
		if fired.Cancelled() {
			t.Fatal("fired event reports Cancelled()")
		}
		e.Cancel(fired) // must be a no-op
		if fired.Cancelled() {
			t.Fatal("cancel-after-fire marked the event cancelled")
		}

		// Cancelled event: Cancelled() true immediately, never fires,
		// re-cancel is a no-op and keeps the report stable.
		ran := false
		ev := e.At(5, "victim", func(*Engine) { ran = true })
		e.Cancel(ev)
		if !ev.Cancelled() {
			t.Fatal("cancelled event does not report Cancelled()")
		}
		e.Cancel(ev) // re-cancel: no-op
		if !ev.Cancelled() {
			t.Fatal("re-cancel cleared the Cancelled() report")
		}
		e.RunAll()
		if ran {
			t.Fatal("cancelled event fired")
		}
	})
}

// TestStaleRefCannotCancelRecycledEvent is the pool-safety property: after
// an event fires (or is cancelled) its node may be reused for a brand-new
// event; the old ref must then be inert.
func TestStaleRefCannotCancelRecycledEvent(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		old := e.At(1, "old", func(*Engine) {})
		e.RunAll() // old fires; its node goes to the freelist

		ran := false
		fresh := e.At(2, "fresh", func(*Engine) { ran = true })
		// The engine recycles nodes LIFO, so fresh reuses old's node.
		// Cancelling through the stale ref must not touch it.
		e.Cancel(old)
		if fresh.Cancelled() {
			t.Fatal("stale ref cancelled the recycled event")
		}
		e.RunAll()
		if !ran {
			t.Fatal("recycled event did not fire after stale-ref cancel")
		}

		// Same property for a cancel → recycle chain.
		victim := e.At(3, "victim", func(*Engine) {})
		e.Cancel(victim)
		ran2 := false
		e.At(4, "fresh2", func(*Engine) { ran2 = true })
		e.Cancel(victim) // stale: node recycled into fresh2
		if victim.Cancelled() {
			t.Fatal("stale ref still reports Cancelled() after node reuse")
		}
		e.RunAll()
		if !ran2 {
			t.Fatal("event recycled from a cancelled node did not fire")
		}
	})
}

// TestFreelistReusePreservesOrdering floods the engine with
// schedule/cancel churn and checks the (time, seq) contract holds
// throughout: equal-time events fire in scheduling order even when their
// nodes came off the freelist.
func TestFreelistReusePreservesOrdering(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		// Prime the freelist.
		for i := 0; i < 32; i++ {
			e.Cancel(e.At(Time(i), "prime", func(*Engine) {}))
		}
		var got []int
		for i := 0; i < 64; i++ {
			i := i
			e.At(100, "tie", func(*Engine) { got = append(got, i) })
		}
		e.RunAll()
		if len(got) != 64 {
			t.Fatalf("fired %d, want 64", len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("recycled nodes broke FIFO tie-break at %d: %v", i, got[:i+1])
			}
		}
	})
}

func TestEngineCancelOneOfMany(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		evs := make([]EventRef, 10)
		for i := 0; i < 10; i++ {
			i := i
			evs[i] = e.At(Time(i), "n", func(*Engine) { got = append(got, i) })
		}
		e.Cancel(evs[4])
		e.Cancel(evs[7])
		e.RunAll()
		if len(got) != 8 {
			t.Fatalf("fired %d, want 8: %v", len(got), got)
		}
		for _, v := range got {
			if v == 4 || v == 7 {
				t.Fatalf("cancelled event %d fired", v)
			}
		}
	})
}

func TestEngineStop(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		fired := 0
		e.At(1, "a", func(en *Engine) { fired++; en.Stop() })
		e.At(2, "b", func(*Engine) { fired++ })
		e.RunAll()
		if fired != 1 {
			t.Fatalf("Stop did not halt the loop; fired=%d", fired)
		}
		if e.Now() != 1 {
			t.Fatalf("Now() = %v after stop, want 1", e.Now())
		}
	})
}

func TestSchedulingInThePastClampsToNow(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var at Time = -1
		e.At(5, "outer", func(en *Engine) {
			en.At(1, "past", func(en2 *Engine) { at = en2.Now() })
		})
		e.RunAll()
		if at != 5 {
			t.Fatalf("past-scheduled event fired at %v, want clamp to 5", at)
		}
	})
}

func TestAfterNegativeClamps(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var at Time = -1
		e.At(2, "outer", func(en *Engine) {
			en.After(-3, "neg", func(en2 *Engine) { at = en2.Now() })
		})
		e.RunAll()
		if at != 2 {
			t.Fatalf("negative After fired at %v, want 2", at)
		}
	})
}

func TestTraceHook(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var names []string
		e.Trace = func(_ Time, name string) { names = append(names, name) }
		e.At(1, "first", func(*Engine) {})
		e.At(2, "second", func(*Engine) {})
		e.RunAll()
		if len(names) != 2 || names[0] != "first" || names[1] != "second" {
			t.Fatalf("trace = %v", names)
		}
	})
}

// TestAtCallNoClosure pins the closure-free scheduling form: the same
// long-lived func value fires with per-event arguments, in order, and is
// cancellable exactly like the closure form.
func TestAtCallNoClosure(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		e := newEngine()
		var got []int
		fn := func(_ *Engine, arg any) { got = append(got, *arg.(*int)) }
		vals := []int{10, 20, 30, 40}
		e.AtCall(2, "b", fn, &vals[1])
		e.AtCall(1, "a", fn, &vals[0])
		e.AfterCall(3, "c", fn, &vals[2])
		victim := e.AtCall(2.5, "victim", fn, &vals[3])
		e.Cancel(victim)
		if !victim.Cancelled() {
			t.Fatal("AtCall event not cancellable")
		}
		e.RunAll()
		if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
			t.Fatalf("AtCall order = %v, want [10 20 30]", got)
		}
	})
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{1.5, "1.5s"},
		{2e-3, "2ms"},
		{5e-6, "5us"},
		{7e-9, "7ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%v).String() = %q, want %q", float64(c.in), got, c.want)
		}
	}
}

// Property: events fire in nondecreasing time order no matter the insertion
// order.
func TestEventOrderProperty(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		prop := func(seed int64, n uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			e := newEngine()
			count := int(n%64) + 1
			var firedAt []Time
			for i := 0; i < count; i++ {
				at := Time(rng.Float64() * 100)
				e.At(at, "p", func(en *Engine) { firedAt = append(firedAt, en.Now()) })
			}
			e.RunAll()
			return sort.SliceIsSorted(firedAt, func(i, j int) bool { return firedAt[i] < firedAt[j] }) &&
				len(firedAt) == count
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: Run(until) never advances the clock past until, and never fires
// events scheduled after it.
func TestRunUntilProperty(t *testing.T) {
	forEachQueue(t, func(t *testing.T, newEngine func() *Engine) {
		prop := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			e := newEngine()
			until := Time(rng.Float64() * 50)
			late := 0
			for i := 0; i < 40; i++ {
				at := Time(rng.Float64() * 100)
				e.At(at, "p", func(en *Engine) {
					if en.Now() > until {
						late++
					}
				})
			}
			end := e.Run(until)
			return late == 0 && end <= until+1e-12
		}
		if err := quick.Check(prop, nil); err != nil {
			t.Fatal(err)
		}
	})
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		for j := 0; j < 1000; j++ {
			e.At(Time(j%97), "b", func(*Engine) {})
		}
		e.RunAll()
	}
}

// BenchmarkEngineAfterFire measures the steady-state schedule→fire cycle
// (the shape of the simulator's inner loop: millions of After calls per
// run). With the event freelist this is allocation-free.
func BenchmarkEngineAfterFire(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, "b", fn)
		e.RunAll()
	}
}

// BenchmarkEngineScheduleCancel measures the schedule→cancel cycle
// (rescheduleCompletion's pattern on every frequency change).
func BenchmarkEngineScheduleCancel(b *testing.B) {
	e := NewEngine()
	fn := func(*Engine) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(1, "b", fn)
		e.Cancel(ev)
	}
}

// Cancelled reports whether this scheduled instance was removed before
// firing. It is exact until the engine recycles the node (cancelled nodes
// are reused by later At/After calls), so check it promptly after Cancel
// rather than arbitrarily later; a recycled node's old refs report false.
func (r EventRef) Cancelled() bool {
	return r.ev != nil && r.ev.gen == r.gen && r.ev.index == -2
}

// Pending returns the number of scheduled, not-yet-fired events.
func (e *Engine) Pending() int { return e.q.len() }
