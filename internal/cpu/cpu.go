// Package cpu models the server hardware ReTail manages: per-core dynamic
// voltage/frequency scaling (DVFS) with discrete frequency levels and a
// non-zero frequency-transition latency, and a socket-level power/energy
// model with super-linear power growth in frequency.
//
// The paper's testbed is an Intel Xeon Gold 6152 whose ACPI userspace
// governor exposes 1.0–2.1 GHz in 0.1 GHz steps and takes 10–500 µs
// (average ≈ 25 µs) for a written frequency to take effect (§VII-F). Both
// properties shape the results — sub-millisecond services (Masstree, Silo)
// gain little because the transition latency is comparable to their request
// latency — so both are modeled explicitly.
package cpu

import (
	"fmt"
	"math"
	"math/rand"

	"retail/internal/sim"
)

// Level indexes a discrete frequency setting, 0 being the lowest.
type Level int

// Grid is an immutable set of available core frequencies in GHz, ascending.
type Grid struct {
	freqs []float64
}

// NewGrid builds a grid from ascending frequencies in GHz.
func NewGrid(freqsGHz []float64) (*Grid, error) {
	if len(freqsGHz) == 0 {
		return nil, fmt.Errorf("cpu: empty frequency grid")
	}
	for i := 1; i < len(freqsGHz); i++ {
		if freqsGHz[i] <= freqsGHz[i-1] {
			return nil, fmt.Errorf("cpu: frequencies must be strictly ascending, got %v", freqsGHz)
		}
	}
	fs := make([]float64, len(freqsGHz))
	copy(fs, freqsGHz)
	return &Grid{freqs: fs}, nil
}

// DefaultGrid returns the paper's 1.0–2.1 GHz grid in 0.1 GHz increments
// (12 levels).
func DefaultGrid() *Grid {
	fs := make([]float64, 12)
	for i := range fs {
		fs[i] = 1.0 + 0.1*float64(i)
	}
	g, err := NewGrid(fs)
	if err != nil {
		panic(err) // statically correct input
	}
	return g
}

// Levels returns the number of frequency settings.
func (g *Grid) Levels() int { return len(g.freqs) }

// Freq returns the frequency in GHz of level l.
func (g *Grid) Freq(l Level) float64 { return g.freqs[l] }

// MaxLevel returns the highest level.
func (g *Grid) MaxLevel() Level { return Level(len(g.freqs) - 1) }

// MinFreq and MaxFreq return the grid extremes in GHz.
func (g *Grid) MinFreq() float64 { return g.freqs[0] }
func (g *Grid) MaxFreq() float64 { return g.freqs[len(g.freqs)-1] }

// Nearest returns the level whose frequency is closest to fGHz (ties go
// to the lower level). Used to reconcile externally observed hardware
// state — e.g. re-reading a cpufreq file after a failed or partial DVFS
// write — back onto the grid.
func (g *Grid) Nearest(fGHz float64) Level {
	best, bestDist := Level(0), math.Abs(g.freqs[0]-fGHz)
	for i := 1; i < len(g.freqs); i++ {
		if d := math.Abs(g.freqs[i] - fGHz); d < bestDist {
			best, bestDist = Level(i), d
		}
	}
	return best
}

// Clamp restricts l to a valid level.
func (g *Grid) Clamp(l Level) Level {
	if l < 0 {
		return 0
	}
	if int(l) >= len(g.freqs) {
		return g.MaxLevel()
	}
	return l
}

// PowerModel converts a core's frequency and activity to Watts.
//
// Dynamic power follows P = DynCoef · V(f)² · f with voltage scaling
// linearly from VMin at the grid minimum to VMax at the grid maximum, which
// yields the super-linear power-frequency curve that makes "run slower when
// slack exists" profitable and Gemini's boost-later two-step DVFS wasteful
// (§VII-B). StaticW burns regardless of activity; an idle core pays only
// StaticW + IdleW.
type PowerModel struct {
	StaticW float64 // per-core leakage, always paid
	IdleW   float64 // residual clocked-idle power on top of static
	DynCoef float64 // dynamic coefficient (W per V²·GHz)
	VMin    float64 // voltage at grid minimum frequency
	VMax    float64 // voltage at grid maximum frequency
	FMinGHz float64 // frequency where VMin applies
	FMaxGHz float64 // frequency where VMax applies
	UncoreW float64 // socket-level constant (LLC, memory controller, DRAM background)
}

// DefaultPowerModel returns coefficients loosely calibrated to a 20-core
// Xeon Gold socket: ≈ 120 W at full load and max frequency, ≈ 33 W idle.
// The static/idle floor is kept low relative to the dynamic range so the
// per-request savings a manager earns are visible in socket power, as on
// the paper's testbed.
func DefaultPowerModel(g *Grid) PowerModel {
	return PowerModel{
		StaticW: 0.9,
		IdleW:   0.2,
		DynCoef: 2.4,
		VMin:    0.62,
		VMax:    0.95,
		FMinGHz: g.MinFreq(),
		FMaxGHz: g.MaxFreq(),
		UncoreW: 11,
	}
}

// Voltage returns the core voltage at frequency f GHz.
func (p PowerModel) Voltage(fGHz float64) float64 {
	if p.FMaxGHz == p.FMinGHz {
		return p.VMax
	}
	t := (fGHz - p.FMinGHz) / (p.FMaxGHz - p.FMinGHz)
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return p.VMin + t*(p.VMax-p.VMin)
}

// ActiveW returns per-core power while executing at f GHz.
func (p PowerModel) ActiveW(fGHz float64) float64 {
	v := p.Voltage(fGHz)
	return p.StaticW + p.DynCoef*v*v*fGHz
}

// IdleTotalW returns per-core power while idle.
func (p PowerModel) IdleTotalW() float64 { return p.StaticW + p.IdleW }

// TransitionModel samples the latency between writing a frequency and the
// new frequency taking effect. The paper measured 10–500 µs with an average
// of ≈ 25 µs; a shifted, capped exponential reproduces that skew.
type TransitionModel struct {
	Min  sim.Duration
	Mean sim.Duration
	Max  sim.Duration
}

// DefaultTransitionModel matches §VII-F.
func DefaultTransitionModel() TransitionModel {
	return TransitionModel{Min: 10 * sim.Microsecond, Mean: 25 * sim.Microsecond, Max: 500 * sim.Microsecond}
}

// Sample draws one transition latency.
func (t TransitionModel) Sample(rng *rand.Rand) sim.Duration {
	if t.Mean <= t.Min {
		return t.Min
	}
	d := t.Min + sim.Duration(rng.ExpFloat64()*float64(t.Mean-t.Min))
	if d > t.Max {
		d = t.Max
	}
	return d
}

// Core is one physical core with an independent DVFS domain.
type Core struct {
	ID    int
	grid  *Grid
	model PowerModel
	trans TransitionModel
	rng   *rand.Rand

	effective Level // frequency currently applied in hardware
	target    Level // last requested level
	pending   sim.EventRef

	busy bool

	lastUpdate sim.Time
	energyJ    float64
	// energyByLevelJ splits energyJ by the effective level it was burned
	// at (idle and transition-pending time attribute to the level the
	// core is actually clocked at). The observability ledger reads this
	// split; Σ energyByLevelJ == energyJ holds at every instant.
	energyByLevelJ []float64
	transitions    int
	writes         int // SetLevel/SetLevelImmediate requests, incl. coalesced ones
	// OnChange, when set, fires after a new frequency takes effect.
	OnChange func(e *sim.Engine, effective Level)

	// transFn is the core's transition callback, bound once at
	// construction so SetLevel schedules without allocating a closure
	// per DVFS write (managers write frequencies on every request).
	transFn func(e *sim.Engine, arg any)
}

// NewCore returns a core starting at the maximum frequency (the paper's
// default: requests run at max frequency until a manager decides
// otherwise), idle, with zero accumulated energy.
func NewCore(id int, g *Grid, model PowerModel, trans TransitionModel, rng *rand.Rand) *Core {
	c := &Core{
		ID:             id,
		grid:           g,
		model:          model,
		trans:          trans,
		rng:            rng,
		effective:      g.MaxLevel(),
		target:         g.MaxLevel(),
		energyByLevelJ: make([]float64, g.Levels()),
	}
	c.transFn = func(en *sim.Engine, _ any) {
		c.pending = sim.EventRef{}
		c.advance(en.Now())
		c.effective = c.target
		c.transitions++
		if c.OnChange != nil {
			c.OnChange(en, c.effective)
		}
	}
	return c
}

// Grid returns the core's frequency grid.
func (c *Core) Grid() *Grid { return c.grid }

// EffectiveLevel returns the frequency level currently applied.
func (c *Core) EffectiveLevel() Level { return c.effective }

// EffectiveFreq returns the applied frequency in GHz.
func (c *Core) EffectiveFreq() float64 { return c.grid.Freq(c.effective) }

// Transitions returns how many frequency changes have taken effect.
func (c *Core) Transitions() int { return c.transitions }

// DVFSWrites returns how many frequency writes the core has received.
// Writes minus transitions (minus at most one pending change) is the
// coalescing dividend: requests elided because the core was already at —
// or already heading to — the requested level, plus same-tick rewrites
// that re-armed a pending transition instead of adding one. The live
// SysfsBackend's batched SetLevels realizes the same semantics against
// real cpufreq files.
func (c *Core) DVFSWrites() int { return c.writes }

func (c *Core) currentPowerW() float64 {
	if !c.busy {
		return c.model.IdleTotalW()
	}
	return c.model.ActiveW(c.grid.Freq(c.effective))
}

// advance integrates energy up to now.
func (c *Core) advance(now sim.Time) {
	if now > c.lastUpdate {
		j := c.currentPowerW() * float64(now-c.lastUpdate)
		c.energyJ += j
		c.energyByLevelJ[c.effective] += j
		c.lastUpdate = now
	}
}

// SetBusy marks the core active or idle at the current engine time.
func (c *Core) SetBusy(e *sim.Engine, busy bool) {
	c.advance(e.Now())
	c.busy = busy
}

// SetLevel requests a new frequency level. The change takes effect after a
// sampled transition latency; a request for the already-targeted level is a
// no-op. Re-requesting while a transition is pending re-arms the pending
// write (last write wins), mirroring how a register write replaces the
// previous one.
func (c *Core) SetLevel(e *sim.Engine, lvl Level) {
	lvl = c.grid.Clamp(lvl)
	c.writes++
	if lvl == c.target && !c.pending.Valid() {
		return
	}
	if lvl == c.target {
		return // pending transition already heading there
	}
	c.target = lvl
	if c.pending.Valid() {
		e.Cancel(c.pending)
		c.pending = sim.EventRef{}
	}
	if lvl == c.effective {
		return
	}
	delay := c.trans.Sample(c.rng)
	c.pending = e.AfterCall(delay, "cpu.transition", c.transFn, nil)
}

// SetLevelImmediate applies a level with no transition latency. Used for
// initial conditions and for coarse-grained managers that change frequency
// rarely enough that the latency is irrelevant.
func (c *Core) SetLevelImmediate(e *sim.Engine, lvl Level) {
	lvl = c.grid.Clamp(lvl)
	c.writes++
	if c.pending.Valid() {
		e.Cancel(c.pending)
		c.pending = sim.EventRef{}
	}
	c.advance(e.Now())
	if lvl != c.effective {
		c.transitions++
	}
	c.effective = lvl
	c.target = lvl
	if c.OnChange != nil {
		c.OnChange(e, c.effective)
	}
}

// EnergyJoules returns energy consumed through time now.
func (c *Core) EnergyJoules(now sim.Time) float64 {
	c.advance(now)
	return c.energyJ
}

// AddEnergyByLevel integrates through now and adds the core's per-level
// joules into dst (len ≥ grid.Levels()). Accumulating into a
// caller-owned slice keeps socket- and fleet-level roll-ups
// allocation-free.
func (c *Core) AddEnergyByLevel(now sim.Time, dst []float64) {
	c.advance(now)
	for i, j := range c.energyByLevelJ {
		dst[i] += j
	}
}

// Socket aggregates cores plus constant uncore power.
type Socket struct {
	Cores []*Core
	model PowerModel

	start sim.Time
}

// NewSocket builds n cores sharing one grid and power model. Each core gets
// an independent RNG stream derived from seed so transition latencies do
// not correlate across cores.
func NewSocket(n int, g *Grid, model PowerModel, trans TransitionModel, seed int64) *Socket {
	s := &Socket{model: model}
	for i := 0; i < n; i++ {
		rng := rand.New(rand.NewSource(seed + int64(i)*7919))
		s.Cores = append(s.Cores, NewCore(i, g, model, trans, rng))
	}
	return s
}

// ResetEnergy restarts energy accounting at now (used to exclude warmup).
func (s *Socket) ResetEnergy(now sim.Time) {
	s.start = now
	for _, c := range s.Cores {
		c.advance(now)
		c.energyJ = 0
		for i := range c.energyByLevelJ {
			c.energyByLevelJ[i] = 0
		}
		c.lastUpdate = now
	}
}

// EnergyJoules returns socket energy (cores + uncore) from the last reset
// through now.
func (s *Socket) EnergyJoules(now sim.Time) float64 {
	total := s.model.UncoreW * float64(now-s.start)
	for _, c := range s.Cores {
		total += c.EnergyJoules(now)
	}
	return total
}

// UncoreJoules returns the constant uncore share of socket energy from
// the last reset through now. EnergyJoules == UncoreJoules + the sum of
// EnergyByLevel: the pair lets an attribution ledger account for every
// joule the socket reports, with the uncore as its own distinguished
// bucket rather than smeared across frequency levels.
func (s *Socket) UncoreJoules(now sim.Time) float64 {
	return s.model.UncoreW * float64(now-s.start)
}

// EnergyByLevel returns core energy from the last reset through now,
// split by the frequency level it was burned at and summed across the
// socket's cores.
func (s *Socket) EnergyByLevel(now sim.Time) []float64 {
	if len(s.Cores) == 0 {
		return nil
	}
	out := make([]float64, s.Cores[0].grid.Levels())
	for _, c := range s.Cores {
		c.AddEnergyByLevel(now, out)
	}
	return out
}

// AveragePowerW returns mean socket power from the last reset through now.
func (s *Socket) AveragePowerW(now sim.Time) float64 {
	dur := float64(now - s.start)
	if dur <= 0 {
		return 0
	}
	return s.EnergyJoules(now) / dur
}

// Transitions sums frequency transitions across cores.
func (s *Socket) Transitions() int {
	t := 0
	for _, c := range s.Cores {
		t += c.Transitions()
	}
	return t
}

// DVFSWrites sums frequency-write requests across cores; see
// Core.DVFSWrites for the coalescing arithmetic.
func (s *Socket) DVFSWrites() int {
	t := 0
	for _, c := range s.Cores {
		t += c.DVFSWrites()
	}
	return t
}
