package policy

import (
	"errors"
	"fmt"

	"retail/internal/cpu"
)

// Policy is one DVFS policy — ReTail or one of the Rubik/Gemini/EETL
// baselines — as both runtimes host it. New builds it; the simulator
// adapters (internal/manager) and the wall-clock server (internal/live)
// drive the same value, so `retail live -policy <name>` decides with the
// code the simulator evaluates.
//
// A Policy performs no locking; each runtime serializes its calls.
type Policy interface {
	// Name identifies the policy ("retail", "rubik", "gemini", "eetl").
	Name() string
	// Decide picks the frequency level for one worker's pipeline and
	// returns the head's predicted service time at that level (seconds)
	// for attribution and boost scheduling.
	Decide(now Time, p Pipeline) (cpu.Level, float64)
	// Observe feeds one completed request's sojourn (seconds).
	Observe(at Time, sojourn float64)
	// Tick runs the periodic work: the QoS′ monitor step for ReTail, a
	// no-op for the monitor-less baselines.
	Tick(now Time)
	// QoSPrime returns the current internal latency target (pinned to
	// QoS for the baselines, steered for ReTail).
	QoSPrime() Duration
}

// Booster is the optional two-step DVFS surface of a Policy: after
// Decide, the runtime re-raises the worker to lvl after delay if its
// request is still running (Gemini's boost checkpoint, EETL's
// long-request threshold). ok is false when nothing is armed.
type Booster interface {
	Boost(chosen cpu.Level, predicted float64) (delay Duration, lvl cpu.Level, ok bool)
}

// Env is what a runtime supplies beside Params when it builds a policy.
type Env struct {
	// QoS and Percentile are the application's latency target (seconds)
	// and its tail percentile.
	QoS        Duration
	Percentile float64
	// Grid is the worker cores' frequency grid.
	Grid *cpu.Grid
	// ProfileAtMax is the offline service-time profile at max frequency
	// (seconds) that Rubik's tail and EETL's threshold derive from.
	ProfileAtMax []float64
	// Tick is the runtime's monitor period in seconds, a tuned
	// Params.Monitor.Interval already folded in: the runtime schedules its
	// ticks at this period, and the posture sizes the monitor around it.
	Tick Duration
	// Posture is the runtime's monitor preset: SimPosture or LivePosture.
	// ReTail needs one; the baselines have no monitor.
	Posture Posture
}

// Posture sizes the QoS′ monitor around a runtime's tick period. The
// result's Target and Percentile are filled from Env, and Params.Monitor
// overrides any field a tuning file sets.
type Posture func(tick Duration) MonitorConfig

// SimPosture is the simulator's monitor: the paper's constants, a tick
// every period landing exactly one period after the previous one in
// virtual time, and 500 ms of sojourn history.
func SimPosture(tick Duration) MonitorConfig {
	return MonitorConfig{Interval: tick, Span: 0.5}
}

// LivePosture is the wall-clock server's monitor. The span covers 20
// monitor periods pruned down to the minimum the tail estimate needs,
// QoS′ may relax up to 1.1×QoS, and the controller steers on the raw
// windowed percentile (Alpha 1). A longer window turns the windowed p99
// at live request rates into "max of the last second", which over-reacts
// to single stragglers and sheds traffic the runtime could serve; EWMA
// smoothing delays the response to a load burst past the burst itself,
// so admission control would only engage after the queues have already
// drained.
//
// Interval floors the monitor's rate-limit gap. The simulator's virtual
// ticks land exactly one period apart, so a floor of one period means
// "adjust at most once per tick"; wall-clock ticker jitter makes
// consecutive ticks arrive marginally under a period apart, which with
// the same floor silently halves the controller gain. Half a period
// keeps the once-per-tick intent under jitter.
func LivePosture(tick Duration) MonitorConfig {
	return MonitorConfig{Interval: tick / 2, Span: 20 * tick, MinKeep: 20, Cap: 1.1, Alpha: 1}
}

// Names lists the policies New builds.
func Names() []string { return []string{"retail", "rubik", "gemini", "eetl"} }

// The historical defaults a zero Params field selects.
const (
	// rubikQuantile reflects the paper's description of Rubik as
	// estimating worst-case latency ("often too conservative", §I/§II).
	rubikQuantile = 0.999
	// geminiBoostFrac places Gemini's boost checkpoint at 80% of the
	// predicted service time.
	geminiBoostFrac = 0.8
	// fallbackQuantile is EETL's long-request quantile, and the value an
	// out-of-range quantile falls back to in both profile estimators.
	fallbackQuantile = 0.75
)

// New builds the named policy ("" is "retail") under p in env. It is the
// one place the policies' zero-Params defaults are applied. Rubik and
// EETL need env.ProfileAtMax; ReTail needs env.Posture.
func New(name string, p Params, env Env) (Policy, error) {
	if env.Grid == nil {
		return nil, errors.New("policy: Env needs a frequency grid")
	}
	maxLvl := env.Grid.MaxLevel()
	switch name {
	case "", "retail":
		if env.Posture == nil {
			return nil, errors.New("policy: retail needs a monitor posture (Env.Posture)")
		}
		mc := env.Posture(env.Tick)
		mc.Target, mc.Percentile = env.QoS, env.Percentile
		mp := p.Monitor
		mp.Interval = 0 // already folded into env.Tick by the runtime
		return &Retail{
			mon:      NewMonitor(mp.Apply(mc)),
			maxLvl:   maxLvl,
			headOnly: p.Alg1.HeadOnly,
			classes:  p.ClassTargets(),
		}, nil
	case "rubik":
		if err := needProfile(name, env); err != nil {
			return nil, err
		}
		q := p.Rubik.Quantile
		if q == 0 {
			q = rubikQuantile
		}
		r := &Rubik{tail: NewRubikTail(env.ProfileAtMax, q), grid: env.Grid, qos: env.QoS}
		r.pipe.r = r
		return r, nil
	case "gemini":
		f := p.Gemini.BoostFrac
		if f == 0 {
			f = geminiBoostFrac
		}
		return &Gemini{maxLvl: maxLvl, qos: env.QoS, boostFrac: f, keepMiss: p.Gemini.KeepOnPredictedMiss}, nil
	case "eetl":
		if err := needProfile(name, env); err != nil {
			return nil, err
		}
		q := p.EETL.Quantile
		if q == 0 {
			q = fallbackQuantile
		}
		slow := maxLvl / 2
		if f := p.EETL.SlowFrac; f != 0 {
			slow = min(max(cpu.Level(f*float64(maxLvl)), 0), maxLvl)
		}
		return &EETL{
			maxLvl:    maxLvl,
			slow:      slow,
			qos:       env.QoS,
			threshold: EETLThreshold(env.ProfileAtMax, q, env.Grid.MaxFreq(), env.Grid.Freq(slow)),
		}, nil
	}
	return nil, fmt.Errorf("policy: unknown policy %q (want one of %v)", name, Names())
}

// needProfile rejects a profile-driven policy built without a profile.
func needProfile(name string, env Env) error {
	if len(env.ProfileAtMax) == 0 {
		return fmt.Errorf("policy: %q needs an offline service-time profile (Env.ProfileAtMax)", name)
	}
	return nil
}

// Retail is the paper's policy: Algorithm 1 over the worker's whole
// pipeline against the QoS′ the latency monitor steers, scaled per SLO
// class.
type Retail struct {
	mon      *Monitor
	maxLvl   cpu.Level
	headOnly bool
	classes  ClassTargets
}

func (r *Retail) Name() string { return "retail" }

// Choose runs Algorithm 1 against the QoS′ of the head's SLO class and
// returns the level and the binding member's index. The simulator calls
// it directly: it attributes the binding request and reads the head's
// prediction without charging it as an inference.
func (r *Retail) Choose(now Time, p Pipeline, headClass uint8) (cpu.Level, int) {
	return Alg1(p, now, r.Budget(headClass), r.maxLvl, r.headOnly)
}

func (r *Retail) Decide(now Time, p Pipeline) (cpu.Level, float64) {
	lvl, _ := r.Choose(now, p, HeadClass(p))
	return lvl, p.Predict(lvl, 0)
}

// Budget is the QoS′ Algorithm 1 enforces for a head of the given SLO
// class: the monitor's target through the class multiplier.
func (r *Retail) Budget(class uint8) Duration { return r.classes.Apply(class, r.mon.QoSPrime()) }

func (r *Retail) Observe(at Time, sojourn float64) { r.mon.Observe(at, sojourn) }
func (r *Retail) Tick(now Time)                    { r.mon.Tick(now) }
func (r *Retail) QoSPrime() Duration               { return r.mon.QoSPrime() }

// SetClassTargets installs per-SLO-class QoS′ multipliers (a cohort
// spec's or trace's class table); the empty value is the identity.
func (r *Retail) SetClassTargets(t ClassTargets) { r.classes = t }

// Monitor returns the QoS′ latency monitor (diagnostics and the effective
// configuration the replay-parity harness rebuilds from).
func (r *Retail) Monitor() *Monitor { return r.mon }
