// Package tune closes the digital-twin loop: record a workload trace on
// any runtime, search a declared region of policy-parameter space by
// replaying that trace deterministically under each candidate, score the
// candidates on energy × tail × violations, and emit the winner as a
// params.json every runtime accepts via -params.
//
// The search region is a versioned, strict-JSON SearchSpec: a base
// Params plus axes, each naming a registered field ("monitor.guard_band")
// with either explicit grid values or [min, max] bounds. Grid mode
// enumerates the cartesian product; random mode draws Samples points from
// a splitmix64 stream seeded by the spec, so the candidate set — like the
// replays themselves — is a pure function of (spec, trace, seed) and the
// whole tuning run is byte-reproducible at any parallelism.
package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"retail/internal/policy"
	"retail/internal/splitmix"
)

// SpecVersion is the search-spec schema version.
const SpecVersion = 1

// MaxCandidates caps the enumeration so a typo'd grid cannot melt CI.
const MaxCandidates = 4096

// Axis is one searched dimension: a registered Params field plus either
// explicit grid values or bounds.
type Axis struct {
	// Field names the knob; see FieldNames for the registry.
	Field string `json:"field"`
	// Values are the explicit grid points (grid mode).
	Values []float64 `json:"values,omitempty"`
	// Min/Max bound the axis. Grid mode expands them into Steps evenly
	// spaced points when Values is empty; random mode draws uniformly.
	Min float64 `json:"min,omitempty"`
	Max float64 `json:"max,omitempty"`
	// Steps is the grid resolution over [Min, Max] (grid mode, ≥ 2).
	Steps int `json:"steps,omitempty"`
}

// Spec is the versioned search specification.
type Spec struct {
	Version int `json:"version"`
	// Name labels the search in reports.
	Name string `json:"name,omitempty"`
	// Mode is "grid" (cartesian product) or "random" (uniform draws).
	Mode string `json:"mode"`
	// Samples is the candidate count in random mode.
	Samples int `json:"samples,omitempty"`
	// Seed drives random mode's splitmix64 stream. It is part of the
	// spec, not a flag: the candidate set is pinned by the file.
	Seed int64 `json:"seed,omitempty"`
	// Base is the starting parameterization every candidate mutates.
	Base policy.Params `json:"base"`
	// Axes are the searched dimensions.
	Axes []Axis `json:"axes"`
}

// fieldEntry binds a registered field name to its setter. The registry
// covers the knobs the simulator replay actually honors — tuning a knob
// the twin cannot evaluate would silently score noise.
type fieldEntry struct {
	name string
	set  func(*policy.Params, float64)
}

var fieldRegistry = []fieldEntry{
	{"monitor.interval_s", func(p *policy.Params, v float64) { p.Monitor.Interval = v }},
	{"monitor.step_frac", func(p *policy.Params, v float64) { p.Monitor.StepFrac = v }},
	{"monitor.relax_below", func(p *policy.Params, v float64) { p.Monitor.RelaxBelow = v }},
	{"monitor.guard_band", func(p *policy.Params, v float64) { p.Monitor.GuardBand = v }},
	{"monitor.correction_band", func(p *policy.Params, v float64) { p.Monitor.CorrectionBand = v }},
	{"monitor.cap", func(p *policy.Params, v float64) { p.Monitor.Cap = v }},
	{"monitor.span_s", func(p *policy.Params, v float64) { p.Monitor.Span = v }},
	{"monitor.alpha", func(p *policy.Params, v float64) { p.Monitor.Alpha = v }},
	{"rubik.quantile", func(p *policy.Params, v float64) { p.Rubik.Quantile = v }},
	{"gemini.boost_frac", func(p *policy.Params, v float64) { p.Gemini.BoostFrac = v }},
	{"eetl.quantile", func(p *policy.Params, v float64) { p.EETL.Quantile = v }},
	{"eetl.slow_frac", func(p *policy.Params, v float64) { p.EETL.SlowFrac = v }},
}

// setter resolves a field name against the registry.
func setter(name string) (func(*policy.Params, float64), bool) {
	for _, f := range fieldRegistry {
		if f.name == name {
			return f.set, true
		}
	}
	return nil, false
}

// FieldNames lists the tunable field paths in registry order.
func FieldNames() []string {
	names := make([]string, len(fieldRegistry))
	for i, f := range fieldRegistry {
		names[i] = f.name
	}
	return names
}

// Validate checks the spec's shape; candidate-level Params validation
// happens per candidate in Candidates, where the assigned values exist.
func (s *Spec) Validate() error {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Version != SpecVersion {
		return fmt.Errorf("tune: spec version %d, want %d", s.Version, SpecVersion)
	}
	switch s.Mode {
	case "grid", "random":
	default:
		return fmt.Errorf("tune: spec mode %q, want \"grid\" or \"random\"", s.Mode)
	}
	if err := s.Base.Validate(); err != nil {
		return fmt.Errorf("tune: spec base: %w", err)
	}
	if len(s.Axes) == 0 {
		return fmt.Errorf("tune: spec needs at least one axis")
	}
	seen := map[string]bool{}
	for i, a := range s.Axes {
		if _, ok := setter(a.Field); !ok {
			return fmt.Errorf("tune: axes[%d]: unknown field %q (have %v)", i, a.Field, FieldNames())
		}
		if seen[a.Field] {
			return fmt.Errorf("tune: axes[%d]: field %q repeated", i, a.Field)
		}
		seen[a.Field] = true
		for j, v := range a.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("tune: axes[%d].values[%d] = %v, want finite", i, j, v)
			}
		}
		boundsSet := a.Min != 0 || a.Max != 0 || a.Steps != 0
		switch s.Mode {
		case "grid":
			if len(a.Values) > 0 {
				if boundsSet {
					return fmt.Errorf("tune: axes[%d] (%s): values and min/max/steps are mutually exclusive", i, a.Field)
				}
				continue
			}
			if a.Steps < 2 {
				return fmt.Errorf("tune: axes[%d] (%s): grid axis needs values or min/max with steps ≥ 2", i, a.Field)
			}
			if !(a.Min < a.Max) {
				return fmt.Errorf("tune: axes[%d] (%s): want min < max, got [%v, %v]", i, a.Field, a.Min, a.Max)
			}
		case "random":
			if len(a.Values) > 0 {
				return fmt.Errorf("tune: axes[%d] (%s): random mode draws from min/max, not values", i, a.Field)
			}
			if !(a.Min < a.Max) {
				return fmt.Errorf("tune: axes[%d] (%s): want min < max, got [%v, %v]", i, a.Field, a.Min, a.Max)
			}
		}
	}
	if s.Mode == "random" && s.Samples < 1 {
		return fmt.Errorf("tune: random mode needs samples ≥ 1")
	}
	return nil
}

// gridPoints expands one grid axis into its ordered value list.
func (a Axis) gridPoints() []float64 {
	if len(a.Values) > 0 {
		return a.Values
	}
	pts := make([]float64, a.Steps)
	for i := range pts {
		pts[i] = a.Min + (a.Max-a.Min)*float64(i)/float64(a.Steps-1)
	}
	return pts
}

// Candidate is one point of the search: the per-axis values (order
// matching Spec.Axes) and the resulting Params.
type Candidate struct {
	Index  int
	Values []float64
	Params policy.Params
}

// float64in maps rng's next draw uniformly onto [min, max). The stream is
// the one the dispatchers use — identical on every platform, so the
// random candidate set is byte-stable in goldens.
func float64in(rng *splitmix.Stream, min, max float64) float64 {
	return min + (max-min)*splitmix.Unit(rng.Next())
}

// Candidates enumerates the search points in canonical order: grid mode
// walks the cartesian product with the last axis fastest; random mode
// draws Samples points from the spec-seeded stream. Every candidate's
// Params passes policy validation — a spec whose bounds can produce an
// invalid point fails here, before any simulation.
func (s *Spec) Candidates() ([]Candidate, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var assigns [][]float64
	switch s.Mode {
	case "grid":
		points := make([][]float64, len(s.Axes))
		total := 1
		for i, a := range s.Axes {
			points[i] = a.gridPoints()
			total *= len(points[i])
			if total > MaxCandidates {
				return nil, fmt.Errorf("tune: grid exceeds %d candidates", MaxCandidates)
			}
		}
		idx := make([]int, len(points))
		for {
			v := make([]float64, len(points))
			for i, pi := range idx {
				v[i] = points[i][pi]
			}
			assigns = append(assigns, v)
			// Odometer increment, last axis fastest.
			i := len(idx) - 1
			for ; i >= 0; i-- {
				idx[i]++
				if idx[i] < len(points[i]) {
					break
				}
				idx[i] = 0
			}
			if i < 0 {
				break
			}
		}
	case "random":
		if s.Samples > MaxCandidates {
			return nil, fmt.Errorf("tune: samples %d exceeds %d", s.Samples, MaxCandidates)
		}
		rng := splitmix.NewStream(uint64(s.Seed))
		for n := 0; n < s.Samples; n++ {
			v := make([]float64, len(s.Axes))
			for i, a := range s.Axes {
				v[i] = float64in(&rng, a.Min, a.Max)
			}
			assigns = append(assigns, v)
		}
	}
	cands := make([]Candidate, len(assigns))
	for n, v := range assigns {
		p := s.Base
		// Copy slice-typed fields so candidates don't alias the base.
		p.ClassScales = append([]float64(nil), s.Base.ClassScales...)
		p.Dispatch.Weights = append([]float64(nil), s.Base.Dispatch.Weights...)
		for i, a := range s.Axes {
			set, _ := setter(a.Field)
			set(&p, v[i])
		}
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("tune: candidate %d (%v): %w", n, v, err)
		}
		cands[n] = Candidate{Index: n, Values: v, Params: p}
	}
	return cands, nil
}

// SHA fingerprints the spec's canonical encoding (16 hex chars, the
// repo-wide convention) so reports can name the search compactly.
func (s *Spec) SHA() string {
	c := *s
	if c.Version == 0 {
		c.Version = SpecVersion
	}
	b, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// ParseSpec strict-decodes a search spec (unknown fields are errors)
// and validates it.
func ParseSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("tune: spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and strict-parses a search-spec file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("tune: spec %q: %w", path, err)
	}
	defer f.Close()
	s, err := ParseSpec(f)
	if err != nil {
		return nil, fmt.Errorf("tune: spec %q: %w", path, err)
	}
	return s, nil
}
