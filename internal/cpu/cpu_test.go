package cpu

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"retail/internal/sim"
)

func testGrid(t *testing.T) *Grid {
	t.Helper()
	return DefaultGrid()
}

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid()
	if g.Levels() != 12 {
		t.Fatalf("levels = %d, want 12", g.Levels())
	}
	if g.MinFreq() != 1.0 || math.Abs(g.MaxFreq()-2.1) > 1e-12 {
		t.Fatalf("range = [%v, %v], want [1.0, 2.1]", g.MinFreq(), g.MaxFreq())
	}
	if math.Abs(g.Freq(5)-1.5) > 1e-12 {
		t.Fatalf("Freq(5) = %v, want 1.5", g.Freq(5))
	}
	if g.MaxLevel() != 11 {
		t.Fatalf("MaxLevel = %d", g.MaxLevel())
	}
}

func TestNewGridValidation(t *testing.T) {
	if _, err := NewGrid(nil); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := NewGrid([]float64{1.0, 1.0}); err == nil {
		t.Fatal("non-ascending grid accepted")
	}
	if _, err := NewGrid([]float64{2.0, 1.0}); err == nil {
		t.Fatal("descending grid accepted")
	}
}

func TestGridClamp(t *testing.T) {
	g := DefaultGrid()
	if g.Clamp(-3) != 0 {
		t.Fatal("negative level not clamped to 0")
	}
	if g.Clamp(99) != g.MaxLevel() {
		t.Fatal("overflow level not clamped to max")
	}
	if g.Clamp(4) != 4 {
		t.Fatal("valid level altered")
	}
}

func TestPowerSuperLinear(t *testing.T) {
	g := testGrid(t)
	pm := DefaultPowerModel(g)
	// Power at fmax must exceed (fmax/fmin)× power at fmin: superlinear.
	lo := pm.ActiveW(g.MinFreq()) - pm.StaticW
	hi := pm.ActiveW(g.MaxFreq()) - pm.StaticW
	if hi <= lo*(g.MaxFreq()/g.MinFreq()) {
		t.Fatalf("dynamic power not super-linear: %v @min vs %v @max", lo, hi)
	}
	// Monotone increasing.
	prev := 0.0
	for l := Level(0); l <= g.MaxLevel(); l++ {
		p := pm.ActiveW(g.Freq(l))
		if p <= prev {
			t.Fatalf("power not monotone at level %d", l)
		}
		prev = p
	}
	if pm.IdleTotalW() >= pm.ActiveW(g.MinFreq()) {
		t.Fatal("idle power should be below any active power")
	}
}

func TestVoltageClamps(t *testing.T) {
	g := testGrid(t)
	pm := DefaultPowerModel(g)
	if v := pm.Voltage(0.1); v != pm.VMin {
		t.Fatalf("below-range voltage = %v, want VMin", v)
	}
	if v := pm.Voltage(9.9); v != pm.VMax {
		t.Fatalf("above-range voltage = %v, want VMax", v)
	}
	flat := pm
	flat.FMinGHz, flat.FMaxGHz = 2, 2
	if v := flat.Voltage(2); v != pm.VMax {
		t.Fatalf("degenerate range voltage = %v", v)
	}
}

func TestTransitionSampleBounds(t *testing.T) {
	tm := DefaultTransitionModel()
	rng := rand.New(rand.NewSource(3))
	var sum sim.Duration
	n := 20000
	for i := 0; i < n; i++ {
		d := tm.Sample(rng)
		if d < tm.Min || d > tm.Max {
			t.Fatalf("sample %v outside [%v, %v]", d, tm.Min, tm.Max)
		}
		sum += d
	}
	mean := float64(sum) / float64(n)
	if mean < 20e-6 || mean > 32e-6 {
		t.Fatalf("mean transition = %vs, want ≈25µs", mean)
	}
	degenerate := TransitionModel{Min: 5e-6, Mean: 5e-6, Max: 5e-6}
	if d := degenerate.Sample(rng); d != 5e-6 {
		t.Fatalf("degenerate model sample = %v", d)
	}
}

func newTestCore(seed int64) (*sim.Engine, *Core) {
	g := DefaultGrid()
	e := sim.NewEngine()
	c := NewCore(0, g, DefaultPowerModel(g), DefaultTransitionModel(), rand.New(rand.NewSource(seed)))
	return e, c
}

func TestCoreStartsAtMax(t *testing.T) {
	_, c := newTestCore(1)
	if c.EffectiveLevel() != c.Grid().MaxLevel() {
		t.Fatal("core should boot at max frequency")
	}
	if c.busy {
		t.Fatal("core should boot idle")
	}
}

func TestCoreTransitionDelay(t *testing.T) {
	e, c := newTestCore(1)
	c.SetLevel(e, 0)
	if c.EffectiveLevel() != c.Grid().MaxLevel() {
		t.Fatal("level changed before transition latency elapsed")
	}
	if c.target != 0 {
		t.Fatal("target not recorded")
	}
	e.Run(1 * sim.Millisecond)
	if c.EffectiveLevel() != 0 {
		t.Fatalf("effective = %d after 1ms, want 0", c.EffectiveLevel())
	}
	if c.Transitions() != 1 {
		t.Fatalf("transitions = %d, want 1", c.Transitions())
	}
}

func TestCoreRedundantSetLevelIsNoop(t *testing.T) {
	e, c := newTestCore(1)
	c.SetLevel(e, c.Grid().MaxLevel()) // already there
	c.SetLevel(e, 3)
	c.SetLevel(e, 3) // same target again while pending
	e.RunAll()
	if e.Fired() != 1 {
		t.Fatalf("%d transition events, want 1: a no-op or duplicate SetLevel scheduled one", e.Fired())
	}
}

func TestCoreLastWriteWins(t *testing.T) {
	e, c := newTestCore(1)
	c.SetLevel(e, 0)
	c.SetLevel(e, 7) // replaces the pending write
	e.Run(1 * sim.Millisecond)
	if c.EffectiveLevel() != 7 {
		t.Fatalf("effective = %d, want 7 (last write wins)", c.EffectiveLevel())
	}
}

func TestCoreSetLevelBackToEffectiveCancelsPending(t *testing.T) {
	e, c := newTestCore(1)
	start := c.EffectiveLevel()
	c.SetLevel(e, 2)
	c.SetLevel(e, start) // revert before the transition landed
	e.Run(1 * sim.Millisecond)
	if c.EffectiveLevel() != start {
		t.Fatalf("effective = %d, want %d", c.EffectiveLevel(), start)
	}
	if c.Transitions() != 0 {
		t.Fatalf("reverted write still counted %d transitions", c.Transitions())
	}
}

func TestCoreOnChangeFires(t *testing.T) {
	e, c := newTestCore(1)
	var got []Level
	c.OnChange = func(_ *sim.Engine, l Level) { got = append(got, l) }
	c.SetLevel(e, 4)
	e.Run(1 * sim.Millisecond)
	if len(got) != 1 || got[0] != 4 {
		t.Fatalf("OnChange calls = %v", got)
	}
}

func TestCoreSetLevelImmediate(t *testing.T) {
	e, c := newTestCore(1)
	c.SetLevelImmediate(e, 2)
	if c.EffectiveLevel() != 2 || c.target != 2 {
		t.Fatal("immediate level not applied")
	}
	if c.Transitions() != 1 {
		t.Fatalf("transitions = %d", c.Transitions())
	}
	// Clamps out-of-range input.
	c.SetLevelImmediate(e, 99)
	if c.EffectiveLevel() != c.Grid().MaxLevel() {
		t.Fatal("immediate level not clamped")
	}
}

func TestCoreEnergyIdleVsBusy(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	e := sim.NewEngine()
	c := NewCore(0, g, pm, DefaultTransitionModel(), rand.New(rand.NewSource(1)))

	// 1 second idle.
	e.At(1, "busy", func(en *sim.Engine) { c.SetBusy(en, true) })
	// 1 second busy at max.
	e.At(2, "idle", func(en *sim.Engine) { c.SetBusy(en, false) })
	e.RunAll()
	got := c.EnergyJoules(2)
	want := pm.IdleTotalW()*1 + pm.ActiveW(g.MaxFreq())*1
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestCoreEnergyAcrossFrequencyChange(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	e := sim.NewEngine()
	c := NewCore(0, g, pm, TransitionModel{Min: 0, Mean: 0, Max: 0}, rand.New(rand.NewSource(1)))
	c.SetBusy(e, true)
	e.At(1, "downclock", func(en *sim.Engine) { c.SetLevel(en, 0) })
	e.RunAll()
	got := c.EnergyJoules(3)
	want := pm.ActiveW(g.MaxFreq())*1 + pm.ActiveW(g.MinFreq())*2
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("energy = %v J, want %v J", got, want)
	}
}

func TestSocketAggregation(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	s := NewSocket(4, g, pm, DefaultTransitionModel(), 42)
	e := sim.NewEngine()
	if len(s.Cores) != 4 {
		t.Fatalf("cores = %d", len(s.Cores))
	}
	s.ResetEnergy(e.Now())
	e.At(1, "stop", func(*sim.Engine) {})
	e.RunAll()
	// All idle for 1 s: energy = 4·idle + uncore.
	want := 4*pm.IdleTotalW() + pm.UncoreW
	if got := s.EnergyJoules(1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("socket energy = %v, want %v", got, want)
	}
	if got := s.AveragePowerW(1); math.Abs(got-want) > 1e-9 {
		t.Fatalf("avg power = %v, want %v", got, want)
	}
	if s.AveragePowerW(0) != 0 {
		t.Fatal("zero-duration average should be 0")
	}
}

func TestSocketResetEnergyExcludesWarmup(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	s := NewSocket(1, g, pm, DefaultTransitionModel(), 7)
	e := sim.NewEngine()
	s.Cores[0].SetBusy(e, true)
	e.At(10, "reset", func(en *sim.Engine) { s.ResetEnergy(en.Now()) })
	e.At(11, "end", func(*sim.Engine) {})
	e.RunAll()
	want := pm.ActiveW(g.MaxFreq()) + pm.UncoreW // only 1 s after reset
	if got := s.EnergyJoules(11); math.Abs(got-want) > 1e-9 {
		t.Fatalf("post-reset energy = %v, want %v", got, want)
	}
}

// Property: a core's accumulated energy is nondecreasing in time and always
// bounded by maxPower·elapsed.
func TestEnergyBounds(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := sim.NewEngine()
		c := NewCore(0, g, pm, DefaultTransitionModel(), rand.New(rand.NewSource(seed+1)))
		// Random walk of busy/idle and frequency changes over 1 s.
		for i := 0; i < 50; i++ {
			at := sim.Time(rng.Float64())
			busy := rng.Intn(2) == 0
			lvl := Level(rng.Intn(g.Levels()))
			e.At(at, "w", func(en *sim.Engine) {
				c.SetBusy(en, busy)
				c.SetLevel(en, lvl)
			})
		}
		e.RunAll()
		energy := c.EnergyJoules(1)
		maxP := pm.ActiveW(g.MaxFreq())
		minP := pm.IdleTotalW()
		return energy >= minP*1-1e-9 && energy <= maxP*1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: after quiescing, the effective level always equals the last
// target written.
func TestLastWriteWinsProperty(t *testing.T) {
	g := DefaultGrid()
	pm := DefaultPowerModel(g)
	prop := func(seed int64, writes []uint8) bool {
		if len(writes) == 0 {
			return true
		}
		e := sim.NewEngine()
		c := NewCore(0, g, pm, DefaultTransitionModel(), rand.New(rand.NewSource(seed)))
		var last Level
		for i, w := range writes {
			lvl := Level(int(w) % g.Levels())
			at := sim.Time(float64(i) * 1e-6) // 1 µs apart: transitions overlap
			e.At(at, "w", func(en *sim.Engine) { c.SetLevel(en, lvl) })
			last = lvl
		}
		e.RunAll()
		return c.EffectiveLevel() == last
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
