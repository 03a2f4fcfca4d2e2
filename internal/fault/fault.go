// Package fault is the deterministic fault-injection layer threaded
// through the live runtime, the DVFS backends and the simulator.
//
// ReTail's runtime must keep QoS when the world misbehaves: a sysfs DVFS
// write can fail (EIO, EPERM, a partial write that leaves the hardware at
// an unknown frequency), a worker can stall, the predictor can go wrong,
// and the workload itself can drift or burst. The paper's answer is a
// safety posture — never sacrifice QoS for power: fall back to max
// frequency, shed what provably cannot meet the deadline, and retrain
// when the model drifts (§V-D). This package provides the *injection*
// half of that story so the degradation machinery can be exercised
// deterministically in tests and in the retail chaos scenario runner.
//
// Design constraints, in the repo's usual order:
//
//  1. Zero cost when disabled. A nil *Injector (or an injector with no
//     plan for a site) makes Fire a nil check plus one branch — no locks,
//     no allocation — so production paths can call it unconditionally.
//     TestInjectorFastPathZeroAlloc pins this.
//  2. Deterministic. The fire/no-fire decision for the n-th call at a
//     site is a pure hash of (seed, site, n): the same seed yields an
//     identical fault schedule per site regardless of goroutine
//     interleaving across sites, and regardless of what other sites do.
//  3. Observable. Every injected fault increments a per-site counter and
//     (when instrumented) a telemetry counter under the repo-wide schema,
//     so degradation reports and dashboards can attribute recovery work
//     to its cause.
package fault

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"

	"retail/internal/cpu"
	"retail/internal/splitmix"
	"retail/internal/telemetry"
)

// Site identifies one injection point in the runtime.
type Site uint8

const (
	// SiteDVFSWrite wraps Backend.SetLevel: EIO/EPERM write failures and
	// partial writes that leave the hardware at a different level than the
	// runtime believes.
	SiteDVFSWrite Site = iota
	// SiteExec injects executor latency spikes and stalls — extra
	// wall-clock (or virtual) time on top of a request's real work.
	SiteExec
	// SitePredict corrupts predictor output (multiplies the predicted
	// service time), modeling a poisoned or stale model.
	SitePredict
	// SiteDrift marks injected workload drift (service-time inflation in
	// the simulator); it is fired by the scenario runner when the drift
	// step is applied so the episode is visible in telemetry.
	SiteDrift
	// NumSites bounds the site enum; not a real site.
	NumSites
)

// String names the site as used in telemetry labels and reports.
func (s Site) String() string {
	switch s {
	case SiteDVFSWrite:
		return "dvfs_write"
	case SiteExec:
		return "exec"
	case SitePredict:
		return "predict"
	case SiteDrift:
		return "drift"
	}
	return "unknown"
}

// Kind is the concrete failure mode an injected fault carries.
type Kind uint8

const (
	// KindNone is the zero value; Fire never returns it with ok=true.
	KindNone Kind = iota
	// KindEIO fails a DVFS write with ErrInjectedIO before it reaches the
	// hardware: the level does not change.
	KindEIO
	// KindEPERM fails a DVFS write with ErrInjectedPerm (governor flipped
	// away from userspace, file permissions changed): level unchanged.
	KindEPERM
	// KindPartialWrite applies a *different* level than requested and then
	// reports a short-write error: the hardware is now out of sync with
	// what the runtime believes, the case SysfsBackend reconciles by
	// re-reading the frequency file.
	KindPartialWrite
	// KindLatencySpike adds Magnitude seconds to a request's execution.
	KindLatencySpike
	// KindStall adds Magnitude seconds (conventionally much larger than a
	// spike) modeling a wedged worker or a long GC/interrupt.
	KindStall
	// KindCorrupt multiplies predictor output by Magnitude.
	KindCorrupt
	// KindDrift inflates intrinsic service times by Magnitude (scenario
	// runner applies it via the simulator's interference hook).
	KindDrift
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case KindEIO:
		return "eio"
	case KindEPERM:
		return "eperm"
	case KindPartialWrite:
		return "partial-write"
	case KindLatencySpike:
		return "latency-spike"
	case KindStall:
		return "stall"
	case KindCorrupt:
		return "corrupt"
	case KindDrift:
		return "drift"
	}
	return "none"
}

// Injected fault errors, distinguishable from real backend errors with
// errors.Is so tests and reports can tell recovery-from-injection apart
// from genuine misconfiguration.
var (
	ErrInjectedIO   = errors.New("fault: injected I/O error (EIO)")
	ErrInjectedPerm = errors.New("fault: injected permission error (EPERM)")
	// ErrInjectedShortWrite reports a partial DVFS write; the hardware was
	// left at a different level than requested.
	ErrInjectedShortWrite = errors.New("fault: injected partial write")
)

// Err maps a fault to its canonical error (nil for non-error kinds).
func (f Fault) Err() error {
	switch f.Kind {
	case KindEIO:
		return ErrInjectedIO
	case KindEPERM:
		return ErrInjectedPerm
	case KindPartialWrite:
		return ErrInjectedShortWrite
	}
	return nil
}

// Fault is one injected failure: what went wrong and how hard.
type Fault struct {
	Kind Kind
	// Magnitude is kind-specific: seconds for latency spikes and stalls,
	// a multiplicative factor for corruption and drift, unused for write
	// errors.
	Magnitude float64
}

// SitePlan schedules faults at one site.
type SitePlan struct {
	Site Site
	// Kinds are the failure modes to rotate through; each fired fault
	// picks one deterministically. Must be non-empty.
	Kinds []Kind
	// Probability fires each call independently with this chance (hashed,
	// not sampled: same seed ⇒ same schedule). Ignored when Every > 0.
	Probability float64
	// Every fires deterministically on every Nth call (1 = always).
	Every uint64
	// From/Until bound the active window in seconds on the injector's
	// clock; both zero means always active.
	From, Until float64
	// Magnitude parameterizes the fault (see Fault.Magnitude).
	Magnitude float64
}

// Burst is a plan-level overload window: the client (or scenario runner)
// multiplies the arrival rate by Factor between From and Until.
type Burst struct {
	From, Until float64 // seconds on the scenario clock
	Factor      float64 // arrival-rate multiplier (> 1)
}

// Drift is a plan-level workload-drift step: intrinsic service times
// inflate by Factor at At; RecoverAt > 0 removes the inflation again
// (0 = the drift persists, and recovery must come from retraining).
type Drift struct {
	At        float64
	Factor    float64
	RecoverAt float64
}

// Plan is a named, self-describing fault scenario: per-call site plans
// plus the environment-shaping burst/drift schedules consumed by the
// scenario runners.
type Plan struct {
	Name        string
	Description string
	Sites       []SitePlan
	Burst       *Burst
	Drift       *Drift
}

// Scaled returns a copy with every time-dimension — site windows,
// burst/drift schedules, and duration-valued magnitudes (latency spikes,
// stalls) — multiplied by f. Dimensionless magnitudes (corruption and
// drift factors) are untouched. Used to compress the canonical 10-second
// plan timelines to a test's wall-clock budget.
func (p *Plan) Scaled(f float64) *Plan {
	if p == nil {
		return nil
	}
	cp := *p
	cp.Sites = make([]SitePlan, len(p.Sites))
	for i, sp := range p.Sites {
		sp.From *= f
		sp.Until *= f
		if len(sp.Kinds) > 0 {
			switch sp.Kinds[0] {
			case KindLatencySpike, KindStall:
				sp.Magnitude *= f
			}
		}
		cp.Sites[i] = sp
	}
	if p.Burst != nil {
		b := *p.Burst
		b.From *= f
		b.Until *= f
		cp.Burst = &b
	}
	if p.Drift != nil {
		d := *p.Drift
		d.At *= f
		d.RecoverAt *= f
		cp.Drift = &d
	}
	return &cp
}

// siteState is the per-site runtime state. All fields but the atomics are
// immutable after New, so Fire is safe for concurrent use without locks.
type siteState struct {
	active    bool
	kinds     []Kind
	prob      float64
	every     uint64
	from      float64
	until     float64
	windowed  bool
	magnitude float64

	calls atomic.Uint64
	fired atomic.Uint64

	counter *telemetry.Counter // nil until Instrument
}

// Injector decides, per call site, whether the current operation fails
// and how. The zero state of every site is "disabled"; a nil *Injector is
// fully disabled and safe to call.
type Injector struct {
	seed  uint64
	clock func() float64 // seconds on the scenario clock; nil = 0
	sites [NumSites]siteState
}

// New builds an injector executing plan with the given seed. A nil plan
// returns a nil injector (all sites disabled) so call sites can thread
// the result unconditionally.
func New(seed int64, plan *Plan) *Injector {
	if plan == nil {
		return nil
	}
	inj := &Injector{seed: uint64(seed)}
	for _, sp := range plan.Sites {
		if sp.Site >= NumSites || len(sp.Kinds) == 0 {
			continue
		}
		st := &inj.sites[sp.Site]
		st.active = true
		st.kinds = append([]Kind(nil), sp.Kinds...)
		st.prob = sp.Probability
		st.every = sp.Every
		st.from, st.until = sp.From, sp.Until
		st.windowed = sp.From != 0 || sp.Until != 0
		st.magnitude = sp.Magnitude
	}
	return inj
}

// WithClock sets the scenario clock used for windowed site plans and
// returns the injector. Call before the first Fire; for wall-clock use
// pass WallClock(), for the simulator pass SimClock-style closures over
// engine time. Nil-safe.
func (i *Injector) WithClock(clock func() float64) *Injector {
	if i != nil {
		i.clock = clock
	}
	return i
}

// WallClock returns a clock reading seconds since its creation.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}

// Fire reports whether the n-th call at site fails, and with what fault.
// It is the hot-path entry point: a nil injector or an unplanned site
// costs a branch or two and never allocates.
func (i *Injector) Fire(site Site) (Fault, bool) {
	if i == nil || site >= NumSites {
		return Fault{}, false
	}
	st := &i.sites[site]
	if !st.active {
		return Fault{}, false
	}
	n := st.calls.Add(1)
	if st.windowed {
		now := 0.0
		if i.clock != nil {
			now = i.clock()
		}
		if now < st.from || (st.until > 0 && now >= st.until) {
			return Fault{}, false
		}
	}
	h := i.seed ^ (uint64(site)+1)*0x9E3779B97F4A7C15 ^ bits.RotateLeft64(n, 17)
	fire := false
	if st.every > 0 {
		fire = n%st.every == 0
	} else {
		fire = splitmix.Unit(splitmix.Mix(h)) < st.prob
	}
	if !fire {
		return Fault{}, false
	}
	st.fired.Add(1)
	if st.counter != nil {
		st.counter.Inc()
	}
	kind := st.kinds[0]
	if len(st.kinds) > 1 {
		kind = st.kinds[splitmix.Mix(h^0xD6E8FEB86659FD93)%uint64(len(st.kinds))]
	}
	return Fault{Kind: kind, Magnitude: st.magnitude}, true
}

// Record counts an externally applied fault (the scenario runner fires
// SiteDrift through here when it applies a drift step) so the episode
// shows up in the same counters as per-call injections. Nil-safe.
func (i *Injector) Record(site Site, n uint64) {
	if i == nil || site >= NumSites {
		return
	}
	st := &i.sites[site]
	st.calls.Add(n)
	st.fired.Add(n)
	if st.counter != nil {
		st.counter.Add(n)
	}
}

// Fired returns how many faults the site has injected.
func (i *Injector) Fired(site Site) uint64 {
	if i == nil || site >= NumSites {
		return 0
	}
	return i.sites[site].fired.Load()
}

// FiredTotal sums injected faults across all sites.
func (i *Injector) FiredTotal() uint64 {
	if i == nil {
		return 0
	}
	var t uint64
	for s := Site(0); s < NumSites; s++ {
		t += i.sites[s].fired.Load()
	}
	return t
}

// Instrument registers one telemetry counter per planned site under the
// repo-wide schema (retail_faults_injected_total{app, site}) and wires it
// into Fire. Nil-safe; call once before traffic starts.
func (i *Injector) Instrument(reg *telemetry.Registry, app string) {
	if i == nil || reg == nil {
		return
	}
	for s := Site(0); s < NumSites; s++ {
		if !i.sites[s].active && s != SiteDrift {
			continue
		}
		i.sites[s].counter = reg.Counter(telemetry.MetricFaultsInjected,
			"Faults injected by the chaos plan, per site.",
			telemetry.L("app", app), telemetry.L("site", s.String()))
	}
}

// ---------------------------------------------------------------------------
// Predictor corruption.

// predictor matches predict.Predictor structurally so this package does
// not need to import internal/predict.
type predictor interface {
	Predict(lvl cpu.Level, features []float64) float64
}

// CorruptingPredictor wraps a predictor and multiplies its output by the
// injected magnitude whenever SitePredict fires. With no plan for
// SitePredict the wrapper is a transparent pass-through.
type CorruptingPredictor struct {
	Inner predictor
	Inj   *Injector
}

// Predict implements the predictor interface (and therefore
// predict.Predictor).
func (c CorruptingPredictor) Predict(lvl cpu.Level, features []float64) float64 {
	v := c.Inner.Predict(lvl, features)
	if f, ok := c.Inj.Fire(SitePredict); ok && f.Kind == KindCorrupt {
		return v * f.Magnitude
	}
	return v
}

// String renders the plan compactly for reports and -list output.
func (p *Plan) String() string {
	if p == nil {
		return "<none>"
	}
	return fmt.Sprintf("%s: %s", p.Name, p.Description)
}
