package policy

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// ParamsVersion is the schema version serialized params carry. Bump it
// only when a field's meaning changes; adding fields whose zero value
// selects the historical behavior is backward-compatible and keeps old
// params files loadable.
const ParamsVersion = 1

// Params is the one serializable bundle of every tunable policy knob —
// the QoS′ monitor's controller constants, Algorithm 1's ablation
// switch, the baselines' posture knobs, the degradation budgets, the
// cluster dispatch rule and the per-SLO-class targets.
//
// Contract: the zero value of every field selects the historical
// default of whichever construction path consumes it, so an empty
// Params (or an absent -params flag) is byte-identical to the
// pre-params behavior in every runtime — that is what keeps all
// pre-existing goldens stable. Each runtime fills its own defaults
// (the simulator's monitor span differs from the live server's, for
// example); Params only overrides the fields a config file sets.
//
// Params is the unit the digital-twin loop searches over: retail tune
// mutates fields within declared bounds, replays a recorded trace under
// each candidate, and emits the winner as a params.json that retail sim,
// live, cluster and chaos all accept via -params.
type Params struct {
	// Version is the schema version (ParamsVersion). 0 in a literal is
	// filled on parse; a file carrying a different version is rejected.
	Version int `json:"version"`
	// Monitor overrides the QoS′ latency monitor constants (§VI-C).
	Monitor MonitorParams `json:"monitor"`
	// Alg1 holds Algorithm 1 options.
	Alg1 Alg1Params `json:"alg1"`
	// Rubik holds the statistical baseline's posture.
	Rubik RubikParams `json:"rubik"`
	// Gemini holds the NN baseline's posture.
	Gemini GeminiParams `json:"gemini"`
	// EETL holds the progress-threshold baseline's posture.
	EETL EETLParams `json:"eetl"`
	// Degrade holds the graceful-degradation budgets.
	Degrade DegradeParams `json:"degrade"`
	// Dispatch holds the cluster routing rule and its weights.
	Dispatch DispatchParams `json:"dispatch"`
	// ClassScales maps SLO-class indexes to QoS′ multipliers (empty =
	// single-class identity; see ClassTargets).
	ClassScales []float64 `json:"class_scales,omitempty"`
}

// MonitorParams mirrors MonitorConfig's tunables (not Target/Percentile,
// which belong to the application's QoS, never to a tuning file). Every
// zero field keeps the consuming runtime's historical value.
type MonitorParams struct {
	// Interval is the monitor period in seconds.
	Interval float64 `json:"interval_s,omitempty"`
	// StepFrac is the QoS′ adjustment step as a fraction of target.
	StepFrac float64 `json:"step_frac,omitempty"`
	// RelaxBelow is the comfort threshold under which QoS′ relaxes.
	RelaxBelow float64 `json:"relax_below,omitempty"`
	// GuardBand is where the downward controller engages (× target).
	GuardBand float64 `json:"guard_band,omitempty"`
	// CorrectionBand is the proportional-correction width (× target).
	CorrectionBand float64 `json:"correction_band,omitempty"`
	// Cap bounds QoS′ relative to target.
	Cap float64 `json:"cap,omitempty"`
	// Span is the sample-window history in seconds.
	Span float64 `json:"span_s,omitempty"`
	// MinKeep is the minimum sample count age-pruning preserves.
	MinKeep int `json:"min_keep,omitempty"`
	// MaxWindow hard-caps the sample window.
	MaxWindow int `json:"max_window,omitempty"`
	// MinSamples is the minimum window before the tail is trusted.
	MinSamples int `json:"min_samples,omitempty"`
	// Alpha is the EWMA smoothing factor (1 = raw percentile).
	Alpha float64 `json:"alpha,omitempty"`
	// Disabled pins QoS′ = QoS (Gemini's posture / the ablation).
	Disabled bool `json:"disabled,omitempty"`
}

// Apply overlays the non-zero fields onto a runtime's historical
// monitor config. Target and Percentile are never touched.
func (mp MonitorParams) Apply(cfg MonitorConfig) MonitorConfig {
	if mp.Interval != 0 {
		cfg.Interval = mp.Interval
	}
	if mp.StepFrac != 0 {
		cfg.StepFrac = mp.StepFrac
	}
	if mp.RelaxBelow != 0 {
		cfg.RelaxBelow = mp.RelaxBelow
	}
	if mp.GuardBand != 0 {
		cfg.GuardBand = mp.GuardBand
	}
	if mp.CorrectionBand != 0 {
		cfg.CorrectionBand = mp.CorrectionBand
	}
	if mp.Cap != 0 {
		cfg.Cap = mp.Cap
	}
	if mp.Span != 0 {
		cfg.Span = mp.Span
	}
	if mp.MinKeep != 0 {
		cfg.MinKeep = mp.MinKeep
	}
	if mp.MaxWindow != 0 {
		cfg.MaxWindow = mp.MaxWindow
	}
	if mp.MinSamples != 0 {
		cfg.MinSamples = mp.MinSamples
	}
	if mp.Alpha != 0 {
		cfg.Alpha = mp.Alpha
	}
	if mp.Disabled {
		cfg.Disabled = true
	}
	return cfg
}

// Alg1Params holds Algorithm 1 options.
type Alg1Params struct {
	// HeadOnly makes Algorithm 1 examine only the request being
	// scheduled, ignoring queued waiters (the paper's ablation).
	HeadOnly bool `json:"head_only,omitempty"`
}

// RubikParams holds the Rubik baseline's posture.
type RubikParams struct {
	// Quantile is the profiled-distribution quantile used as each
	// request's latency prediction (0 = the historical default; see New).
	Quantile float64 `json:"quantile,omitempty"`
}

// GeminiParams holds the Gemini baseline's posture.
type GeminiParams struct {
	// BoostFrac places the two-step boost checkpoint at this fraction of
	// the predicted service time (0 = the historical default; see New).
	BoostFrac float64 `json:"boost_frac,omitempty"`
	// KeepOnPredictedMiss disables Gemini's arrival-time shedding of
	// requests predicted to miss QoS. Inverted so the zero value keeps
	// the historical drop-on-predicted-miss posture.
	KeepOnPredictedMiss bool `json:"keep_on_predicted_miss,omitempty"`
}

// EETLParams holds the EETL baseline's posture.
type EETLParams struct {
	// Quantile derives the long-request threshold from the profile
	// (0 = the historical default; see New).
	Quantile float64 `json:"quantile,omitempty"`
	// SlowFrac places the slow level at floor(SlowFrac × the max level),
	// clamped to the grid (0 = the historical half of the max level).
	SlowFrac float64 `json:"slow_frac,omitempty"`
}

// DegradeParams holds the degradation-ladder budgets. Zero fields keep
// the consuming runtime's defaults (notably: shed/deadline stay OFF in
// runtimes that historically ran without them).
type DegradeParams struct {
	// ShedFactor > 0 enables admission control at ShedFactor × QoS′.
	ShedFactor float64 `json:"shed_factor,omitempty"`
	// DeadlineFactor > 0 enables dequeue drops at DeadlineFactor × QoS.
	DeadlineFactor float64 `json:"deadline_factor,omitempty"`
	// MaxDVFSRetries bounds DVFS write retries before pin-at-max
	// (0 = runtime default of 3; negative disables retries).
	MaxDVFSRetries int `json:"max_dvfs_retries,omitempty"`
	// RetryBackoff is the initial DVFS retry backoff in seconds,
	// doubling per attempt (0 = runtime default of 200µs).
	RetryBackoff float64 `json:"retry_backoff_s,omitempty"`
}

// DispatchParams holds the cluster routing axis.
type DispatchParams struct {
	// Rule names the dispatcher ("" = the consuming layer's default;
	// see DispatcherNames, plus "weighted").
	Rule string `json:"rule,omitempty"`
	// Weights are the per-node capacity weights of the "weighted" rule
	// (index = node). Missing or non-positive entries default to 1.
	Weights []float64 `json:"weights,omitempty"`
}

// DefaultParams returns an empty params value at the current schema
// version — the identity configuration every runtime treats as "use the
// historical constants".
func DefaultParams() Params { return Params{Version: ParamsVersion} }

// ClassTargets materializes the per-class QoS′ multipliers.
func (p Params) ClassTargets() ClassTargets { return NewClassTargets(p.ClassScales) }

// Validate rejects params no construction path could honor. Bounds are
// deliberately loose — retail tune explores aggressive corners — but
// values that are semantically impossible (negative durations, an EWMA
// factor past 1, an unknown dispatch rule) fail here, up front, rather
// than deep inside a runtime.
func (p *Params) Validate() error {
	if p.Version == 0 {
		p.Version = ParamsVersion
	}
	if p.Version != ParamsVersion {
		return fmt.Errorf("policy: params version %d, want %d", p.Version, ParamsVersion)
	}
	m := p.Monitor
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"monitor.interval_s", m.Interval},
		{"monitor.step_frac", m.StepFrac},
		{"monitor.relax_below", m.RelaxBelow},
		{"monitor.guard_band", m.GuardBand},
		{"monitor.correction_band", m.CorrectionBand},
		{"monitor.cap", m.Cap},
		{"monitor.span_s", m.Span},
		{"monitor.alpha", m.Alpha},
		{"rubik.quantile", p.Rubik.Quantile},
		{"gemini.boost_frac", p.Gemini.BoostFrac},
		{"eetl.quantile", p.EETL.Quantile},
		{"eetl.slow_frac", p.EETL.SlowFrac},
		{"degrade.shed_factor", p.Degrade.ShedFactor},
		{"degrade.deadline_factor", p.Degrade.DeadlineFactor},
		{"degrade.retry_backoff_s", p.Degrade.RetryBackoff},
	} {
		if c.v < 0 || math.IsNaN(c.v) || math.IsInf(c.v, 0) {
			return fmt.Errorf("policy: params %s = %v, want a finite non-negative value", c.name, c.v)
		}
	}
	if m.Alpha > 1 {
		return fmt.Errorf("policy: params monitor.alpha = %v, want ≤ 1 (EWMA factor)", m.Alpha)
	}
	if m.MinKeep < 0 || m.MaxWindow < 0 || m.MinSamples < 0 {
		return fmt.Errorf("policy: params monitor window bounds must be non-negative")
	}
	if q := p.Rubik.Quantile; q != 0 && (q <= 0 || q >= 1) {
		return fmt.Errorf("policy: params rubik.quantile = %v, want in (0,1)", q)
	}
	if q := p.EETL.Quantile; q != 0 && (q <= 0 || q >= 1) {
		return fmt.Errorf("policy: params eetl.quantile = %v, want in (0,1)", q)
	}
	if f := p.EETL.SlowFrac; f > 1 {
		return fmt.Errorf("policy: params eetl.slow_frac = %v, want in [0,1]", f)
	}
	if r := p.Dispatch.Rule; r != "" && r != "weighted" {
		known := false
		for _, n := range DispatcherNames() {
			if n == r {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("policy: params dispatch.rule %q unknown (have %v plus \"weighted\")", r, DispatcherNames())
		}
	}
	for i, w := range p.Dispatch.Weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return fmt.Errorf("policy: params dispatch.weights[%d] = %v, want finite non-negative", i, w)
		}
	}
	for i, s := range p.ClassScales {
		if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("policy: params class_scales[%d] = %v, want finite positive", i, s)
		}
	}
	return nil
}

// CanonicalJSON returns the params' canonical byte encoding: the strict
// schema marshaled with Go's deterministic field order. These are the
// bytes SHA fingerprints, and the bytes retail tune writes as the
// winning params.json — parsing them back yields a bit-identical value.
func (p Params) CanonicalJSON() ([]byte, error) {
	if p.Version == 0 {
		p.Version = ParamsVersion
	}
	return json.MarshalIndent(p, "", "  ")
}

// SHA returns a short hex digest of the canonical encoding — the same
// 16-hex-char fingerprint convention trace headers and cohort specs use,
// so reports can name a parameterization compactly.
func (p Params) SHA() string {
	b, err := p.CanonicalJSON()
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// ParseParams strict-decodes a params file (unknown fields are errors —
// a typo'd knob must not silently revert to a default mid-tuning-loop)
// and validates it.
func ParseParams(r io.Reader) (Params, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var p Params
	if err := dec.Decode(&p); err != nil {
		return Params{}, fmt.Errorf("policy: params: %w", err)
	}
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// LoadParams reads and strict-parses a params file. The empty path is
// the identity configuration (DefaultParams) so callers can forward an
// optional -params flag unconditionally.
func LoadParams(path string) (Params, error) {
	if path == "" {
		return DefaultParams(), nil
	}
	f, err := os.Open(path)
	if err != nil {
		return Params{}, fmt.Errorf("policy: params %q: %w", path, err)
	}
	defer f.Close()
	p, err := ParseParams(f)
	if err != nil {
		return Params{}, fmt.Errorf("policy: params %q: %w", path, err)
	}
	return p, nil
}
