// Package telemetry is the repo's observability substrate: a registry of
// named, labeled instruments — atomic counters, gauges and log-linear
// histograms — plus a Prometheus text-format (exposition v0.0.4) encoder
// and an http.Handler serving /metrics and /healthz.
//
// The paper's runtime is driven by measurement: the latency monitor
// re-tunes QoS′ every 100 ms against the observed tail (§VI) and drift
// detection watches RMSE/QoS degradation (§V). This package gives both
// the simulator and the wall-clock runtime one substrate to record those
// signals continuously instead of summarizing post-hoc.
//
// Design constraints, in order:
//
//  1. The hot path must not perturb the tail it measures. Counter.Inc,
//     Gauge.Set and Histogram.Observe are a handful of atomic operations
//     (< 100 ns, see BenchmarkHistogramObserve) with no locks and no
//     allocation. Instrument handles are obtained once at setup time;
//     recording never touches the registry.
//  2. No dependencies beyond the standard library.
//  3. Time-base agnostic: instruments record plain float64 seconds, so
//     the simulator feeds virtual time and the live runtime feeds
//     wall-clock time through identical metric names.
package telemetry

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer, safe for concurrent use.
// The zero value is usable but counters normally come from a Registry so
// they are exported.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n is unsigned: counters never go down).
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// metricKind discriminates families in the exposition output.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric with a fixed label-name schema and one child
// instrument per distinct label-value tuple.
type family struct {
	name       string
	help       string
	kind       metricKind
	labelNames []string

	// children maps the joined label-value key to the instrument
	// (*Counter, *Gauge or *Histogram). Lookups during registration take
	// the registry lock; the instruments themselves are lock-free.
	children map[string]any
	order    []string // registration order of child keys, for stable output
	labels   map[string][]string
}

// Registry holds metric families. Instrument creation (Counter, Gauge,
// Histogram) is get-or-create and takes a mutex; the returned handles
// record with pure atomics. A Registry is safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Label is one name=value pair attached to an instrument.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for Label{name, value}.
func L(name, value string) Label { return Label{Name: name, Value: value} }

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// childKey joins label values with a separator that cannot appear
// unescaped ambiguity-free (label values may contain anything, so escape
// the separator).
func childKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(l.Value)
	}
	return b.String()
}

// getOrCreate returns the instrument for (name, labels), creating the
// family and/or child if needed. It panics on schema violations (same
// name registered with a different kind, help or label-name set) because
// those are programming errors that would silently corrupt exposition.
func (r *Registry) getOrCreate(name, help string, kind metricKind, labels []Label, mk func() any) any {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	lnames := make([]string, len(labels))
	lvals := make([]string, len(labels))
	for i, l := range labels {
		if !validName(l.Name) {
			panic(fmt.Sprintf("telemetry: invalid label name %q", l.Name))
		}
		lnames[i] = l.Name
		lvals[i] = l.Value
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			labelNames: lnames,
			children:   map[string]any{},
			labels:     map[string][]string{},
		}
		r.families[name] = f
		r.names = append(r.names, name)
	} else {
		if f.kind != kind {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, kind, f.kind))
		}
		if len(f.labelNames) != len(lnames) {
			panic(fmt.Sprintf("telemetry: %s re-registered with %d labels (was %d)", name, len(lnames), len(f.labelNames)))
		}
		for i := range lnames {
			if f.labelNames[i] != lnames[i] {
				panic(fmt.Sprintf("telemetry: %s label %q does not match registered %q", name, lnames[i], f.labelNames[i]))
			}
		}
	}
	key := childKey(labels)
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	f.order = append(f.order, key)
	f.labels[key] = lvals
	return c
}

// Counter returns the counter for (name, labels), creating it on first
// use. The same (name, labels) always yields the same *Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.getOrCreate(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.getOrCreate(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram for (name, labels), creating it on
// first use.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.getOrCreate(name, help, kindHistogram, labels, func() any { return NewHistogram() }).(*Histogram)
}

// visit calls fn for every family in registration order with its children
// in registration order, under the registry lock.
func (r *Registry) visit(fn func(f *family)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.names {
		fn(r.families[n])
	}
}

// MetricPoint is one instrument's state inside a FamilySnapshot: its
// label values (in the family's label-name order) and either a scalar
// Value (counters report their count, gauges their level) or a
// histogram snapshot.
type MetricPoint struct {
	Labels []Label
	Value  float64
	Hist   *HistogramSnapshot // non-nil iff the family is a histogram
}

// FamilySnapshot is one metric family's state at Gather time.
type FamilySnapshot struct {
	Name   string
	Help   string
	Kind   string // "counter", "gauge" or "histogram"
	Points []MetricPoint
}

// Gather snapshots every family in registration order, children in
// registration order — the same deterministic walk WriteText performs,
// but as data instead of exposition text. Roll-ups (internal/obs) merge
// these snapshots across per-node registries into fleet-level views.
// Like Snapshot, a gather under concurrent recording is a near-instant
// cut, not an atomic one.
func (r *Registry) Gather() []FamilySnapshot {
	var out []FamilySnapshot
	r.visit(func(f *family) {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind.String()}
		for _, key := range f.order {
			vals := f.labels[key]
			labels := make([]Label, len(f.labelNames))
			for i, n := range f.labelNames {
				labels[i] = Label{Name: n, Value: vals[i]}
			}
			p := MetricPoint{Labels: labels}
			switch c := f.children[key].(type) {
			case *Counter:
				p.Value = float64(c.Value())
			case *Gauge:
				p.Value = c.Value()
			case *Histogram:
				s := c.Snapshot()
				p.Hist = &s
			}
			fs.Points = append(fs.Points, p)
		}
		out = append(out, fs)
	})
	return out
}
