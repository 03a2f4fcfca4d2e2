package fault

import (
	"errors"
	"sync"
	"testing"

	"retail/internal/cpu"
	"retail/internal/telemetry"
)

// probPlan is a single-site probabilistic plan used across the tests.
func probPlan(p float64) *Plan {
	return &Plan{
		Name: "test",
		Sites: []SitePlan{{
			Site:        SiteDVFSWrite,
			Kinds:       []Kind{KindEIO, KindEPERM, KindPartialWrite},
			Probability: p,
		}},
	}
}

// schedule records the exact (fired, kind) sequence over n calls.
func schedule(inj *Injector, site Site, n int) []Kind {
	out := make([]Kind, n)
	for i := 0; i < n; i++ {
		if f, ok := inj.Fire(site); ok {
			out[i] = f.Kind
		}
	}
	return out
}

// TestInjectorDeterministicSchedule is the core contract: the same seed
// produces an identical per-site fault schedule — same call indices fire,
// same kinds — while a different seed produces a different one.
func TestInjectorDeterministicSchedule(t *testing.T) {
	const n = 4096
	a := schedule(New(7, probPlan(0.3)), SiteDVFSWrite, n)
	b := schedule(New(7, probPlan(0.3)), SiteDVFSWrite, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := schedule(New(8, probPlan(0.3)), SiteDVFSWrite, n)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestInjectorProbability checks the hashed decision tracks the requested
// rate over a long run.
func TestInjectorProbability(t *testing.T) {
	const n = 100000
	inj := New(42, probPlan(0.25))
	fired := 0
	for i := 0; i < n; i++ {
		if _, ok := inj.Fire(SiteDVFSWrite); ok {
			fired++
		}
	}
	got := float64(fired) / n
	if got < 0.23 || got > 0.27 {
		t.Fatalf("fire rate %.4f, want ≈0.25", got)
	}
	if calls := inj.sites[SiteDVFSWrite].calls.Load(); calls != n || inj.Fired(SiteDVFSWrite) != uint64(fired) {
		t.Fatalf("counters calls=%d fired=%d, want %d/%d",
			calls, inj.Fired(SiteDVFSWrite), n, fired)
	}
}

// TestInjectorEvery pins the modular schedule: Every=3 fires calls 3, 6, 9…
func TestInjectorEvery(t *testing.T) {
	inj := New(1, &Plan{Sites: []SitePlan{{
		Site: SiteExec, Kinds: []Kind{KindStall}, Every: 3, Magnitude: 0.5,
	}}})
	for i := 1; i <= 12; i++ {
		f, ok := inj.Fire(SiteExec)
		if want := i%3 == 0; ok != want {
			t.Fatalf("call %d: fired=%v, want %v", i, ok, want)
		}
		if ok && (f.Kind != KindStall || f.Magnitude != 0.5) {
			t.Fatalf("call %d: got %+v", i, f)
		}
	}
}

// TestInjectorWindow gates firing on the scenario clock.
func TestInjectorWindow(t *testing.T) {
	now := 0.0
	inj := New(1, &Plan{Sites: []SitePlan{{
		Site: SitePredict, Kinds: []Kind{KindCorrupt}, Every: 1,
		From: 2, Until: 4, Magnitude: 0.5,
	}}}).WithClock(func() float64 { return now })
	for _, tc := range []struct {
		at   float64
		want bool
	}{{0, false}, {1.9, false}, {2, true}, {3.5, true}, {4, false}, {10, false}} {
		now = tc.at
		if _, ok := inj.Fire(SitePredict); ok != tc.want {
			t.Fatalf("t=%.1f: fired=%v, want %v", tc.at, ok, tc.want)
		}
	}
}

// TestInjectorNilSafety: a nil injector (no plan) is fully disabled and
// safe on every method.
func TestInjectorNilSafety(t *testing.T) {
	var inj *Injector
	if inj != New(1, nil) {
		t.Fatal("New with nil plan should return a nil injector")
	}
	if _, ok := inj.Fire(SiteExec); ok {
		t.Fatal("nil injector fired")
	}
	inj.Record(SiteDrift, 3)
	inj.Instrument(telemetry.NewRegistry(), "x")
	inj.WithClock(func() float64 { return 0 })
	if inj.FiredTotal() != 0 {
		t.Fatal("nil injector reported nonzero state")
	}
}

// TestInjectorFastPathZeroAlloc pins the hot-path cost: Fire must not
// allocate for a nil injector, an unplanned site, or even a planned site
// (hit or miss) — the live worker loop calls it per request.
func TestInjectorFastPathZeroAlloc(t *testing.T) {
	var nilInj *Injector
	if n := testing.AllocsPerRun(1000, func() {
		nilInj.Fire(SiteExec)
	}); n != 0 {
		t.Fatalf("nil-injector Fire allocates %.1f/op", n)
	}
	inj := New(3, probPlan(0.5))
	if n := testing.AllocsPerRun(1000, func() {
		inj.Fire(SiteExec) // unplanned site
	}); n != 0 {
		t.Fatalf("unplanned-site Fire allocates %.1f/op", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		inj.Fire(SiteDVFSWrite) // planned site, hit-or-miss
	}); n != 0 {
		t.Fatalf("planned-site Fire allocates %.1f/op", n)
	}
}

// TestInjectorConcurrentTotal: under concurrent callers the per-site
// totals match the sequential schedule (the decision is a pure function
// of the atomic call index, so interleaving cannot change the multiset).
func TestInjectorConcurrentTotal(t *testing.T) {
	const n = 8000
	const workers = 8
	seq := New(11, probPlan(0.2))
	want := 0
	for i := 0; i < n; i++ {
		if _, ok := seq.Fire(SiteDVFSWrite); ok {
			want++
		}
	}
	conc := New(11, probPlan(0.2))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/workers; i++ {
				conc.Fire(SiteDVFSWrite)
			}
		}()
	}
	wg.Wait()
	if got := conc.Fired(SiteDVFSWrite); got != uint64(want) {
		t.Fatalf("concurrent fired=%d, sequential=%d", got, want)
	}
}

// TestFaultErrMapping: kinds map to the canonical sentinel errors.
func TestFaultErrMapping(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		want error
	}{
		{KindEIO, ErrInjectedIO},
		{KindEPERM, ErrInjectedPerm},
		{KindPartialWrite, ErrInjectedShortWrite},
		{KindLatencySpike, nil},
		{KindCorrupt, nil},
	} {
		if err := (Fault{Kind: tc.kind}).Err(); !errors.Is(err, tc.want) {
			t.Fatalf("%v: err=%v, want %v", tc.kind, err, tc.want)
		}
	}
}

// TestPlanScaled: time dimensions scale, dimensionless factors do not.
func TestPlanScaled(t *testing.T) {
	p := &Plan{
		Sites: []SitePlan{
			{Site: SiteExec, Kinds: []Kind{KindStall}, From: 2, Until: 4, Magnitude: 0.1},
			{Site: SitePredict, Kinds: []Kind{KindCorrupt}, From: 1, Until: 3, Magnitude: 0.25},
		},
		Burst: &Burst{From: 3, Until: 5, Factor: 3},
		Drift: &Drift{At: 3, Factor: 1.6, RecoverAt: 8},
	}
	s := p.Scaled(0.5)
	if s.Sites[0].From != 1 || s.Sites[0].Until != 2 || s.Sites[0].Magnitude != 0.05 {
		t.Fatalf("stall site not scaled: %+v", s.Sites[0])
	}
	if s.Sites[1].Magnitude != 0.25 {
		t.Fatalf("corruption factor must not scale: %+v", s.Sites[1])
	}
	if s.Burst.From != 1.5 || s.Burst.Until != 2.5 || s.Burst.Factor != 3 {
		t.Fatalf("burst not scaled: %+v", s.Burst)
	}
	if s.Drift.At != 1.5 || s.Drift.RecoverAt != 4 || s.Drift.Factor != 1.6 {
		t.Fatalf("drift not scaled: %+v", s.Drift)
	}
	// The original is untouched.
	if p.Sites[0].From != 2 || p.Burst.From != 3 || p.Drift.At != 3 {
		t.Fatal("Scaled mutated the original plan")
	}
}

// TestPlanRegistry: every built-in plan resolves by name, names are
// sorted, and unknown names fail with the available list.
func TestPlanRegistry(t *testing.T) {
	names := PlanNames()
	if len(names) == 0 {
		t.Fatal("no built-in plans")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("PlanNames not sorted: %v", names)
		}
	}
	for _, n := range names {
		p, err := PlanByName(n)
		if err != nil || p.Name != n {
			t.Fatalf("PlanByName(%q): %v, %v", n, p, err)
		}
		if p.Description == "" {
			t.Fatalf("plan %q has no description", n)
		}
	}
	if _, err := PlanByName("no-such-plan"); err == nil {
		t.Fatal("unknown plan did not error")
	}
}

type fixedPredictor float64

func (p fixedPredictor) Predict(lvl cpu.Level, f []float64) float64 { return float64(p) }

// TestCorruptingPredictor: fires multiply the inner prediction; a nil
// injector is a transparent pass-through.
func TestCorruptingPredictor(t *testing.T) {
	inj := New(1, &Plan{Sites: []SitePlan{{
		Site: SitePredict, Kinds: []Kind{KindCorrupt}, Every: 2, Magnitude: 0.5,
	}}})
	cp := CorruptingPredictor{Inner: fixedPredictor(8), Inj: inj}
	if v := cp.Predict(0, nil); v != 8 { // call 1: no fire
		t.Fatalf("call 1: got %v, want 8", v)
	}
	if v := cp.Predict(0, nil); v != 4 { // call 2: fires ×0.5
		t.Fatalf("call 2: got %v, want 4", v)
	}
	clean := CorruptingPredictor{Inner: fixedPredictor(8), Inj: nil}
	if v := clean.Predict(0, nil); v != 8 {
		t.Fatalf("nil injector: got %v, want 8", v)
	}
}

// TestInjectorInstrument: fired faults land in the schema counter, and
// Record counts externally applied faults the same way.
func TestInjectorInstrument(t *testing.T) {
	reg := telemetry.NewRegistry()
	inj := New(1, &Plan{Sites: []SitePlan{{
		Site: SiteExec, Kinds: []Kind{KindStall}, Every: 1, Magnitude: 1e-3,
	}}})
	inj.Instrument(reg, "testapp")
	for i := 0; i < 5; i++ {
		inj.Fire(SiteExec)
	}
	inj.Record(SiteDrift, 2)
	c := reg.Counter(telemetry.MetricFaultsInjected, "",
		telemetry.L("app", "testapp"), telemetry.L("site", "exec"))
	if c.Value() != 5 {
		t.Fatalf("exec counter=%d, want 5", c.Value())
	}
	d := reg.Counter(telemetry.MetricFaultsInjected, "",
		telemetry.L("app", "testapp"), telemetry.L("site", "drift"))
	if d.Value() != 2 {
		t.Fatalf("drift counter=%d, want 2", d.Value())
	}
	if inj.FiredTotal() != 7 {
		t.Fatalf("FiredTotal=%d, want 7", inj.FiredTotal())
	}
}
