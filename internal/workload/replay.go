package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"strconv"

	"retail/internal/sim"
)

// ReplayApp is an App backed by recorded request samples instead of a
// synthetic model — the path a production deployment takes: capture
// (features, service time) pairs from live traffic, then calibrate and
// evaluate against the replay. Generate draws samples with replacement
// using the caller's RNG, so Poisson arrival generation composes
// unchanged.
type ReplayApp struct {
	name    string
	qos     QoS
	specs   []FeatureSpec
	samples []ReplaySample
	cf      float64
}

// ReplaySample is one recorded request.
type ReplaySample struct {
	Features []float64
	Service  sim.Duration // intrinsic service time at max frequency
}

// NewReplayApp validates and wraps recorded samples. computeFrac sets the
// frequency-scalable fraction for all replayed requests (profile it with
// two calibration runs at different frequencies when unknown).
func NewReplayApp(name string, qos QoS, specs []FeatureSpec, samples []ReplaySample, computeFrac float64) (*ReplayApp, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("workload: replay %q has no samples", name)
	}
	if computeFrac < 0 || computeFrac > 1 {
		return nil, fmt.Errorf("workload: compute fraction %v outside [0,1]", computeFrac)
	}
	for i, s := range samples {
		if len(s.Features) != len(specs) {
			return nil, fmt.Errorf("workload: replay sample %d has %d features, specs %d", i, len(s.Features), len(specs))
		}
		if s.Service <= 0 {
			return nil, fmt.Errorf("workload: replay sample %d has non-positive service %v", i, s.Service)
		}
	}
	return &ReplayApp{name: name, qos: qos, specs: specs, samples: samples, cf: computeFrac}, nil
}

// Name implements App.
func (a *ReplayApp) Name() string { return a.name }

// QoS implements App.
func (a *ReplayApp) QoS() QoS { return a.qos }

// FeatureSpecs implements App.
func (a *ReplayApp) FeatureSpecs() []FeatureSpec { return a.specs }

// Len returns the recorded sample count.
func (a *ReplayApp) Len() int { return len(a.samples) }

// Generate implements App by sampling the trace with replacement.
func (a *ReplayApp) Generate(rng *rand.Rand) *Request {
	r := &Request{}
	a.GenerateInto(r, rng)
	return r
}

// GenerateInto implements InPlaceGenerator; the sample's features are
// copied into the request's own backing.
func (a *ReplayApp) GenerateInto(r *Request, rng *rand.Rand) {
	s := a.samples[rng.Intn(len(a.samples))]
	r.App = a.name
	r.Features = append(r.Features[:0], s.Features...)
	r.ServiceBase = s.Service
	r.ComputeFrac = a.cf
}

// LoadReplayCSV reads samples from CSV with header
// "service_s,<feature name>...", where feature names must match the given
// specs in order.
func LoadReplayCSV(r io.Reader, specs []FeatureSpec) ([]ReplaySample, error) {
	rd := csv.NewReader(r)
	header, err := rd.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: replay header: %w", err)
	}
	if len(header) != len(specs)+1 || header[0] != "service_s" {
		return nil, fmt.Errorf("workload: replay header %v, want [service_s %d feature columns]", header, len(specs))
	}
	for i, s := range specs {
		if header[i+1] != s.Name {
			return nil, fmt.Errorf("workload: replay column %d is %q, want %q", i+1, header[i+1], s.Name)
		}
	}
	var out []ReplaySample
	for line := 2; ; line++ {
		rec, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: replay line %d: %w", line, err)
		}
		svc, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("workload: replay line %d service: %w", line, err)
		}
		feats := make([]float64, len(specs))
		for i := range specs {
			v, err := strconv.ParseFloat(rec[i+1], 64)
			if err != nil {
				return nil, fmt.Errorf("workload: replay line %d feature %s: %w", line, specs[i].Name, err)
			}
			feats[i] = v
		}
		out = append(out, ReplaySample{Features: feats, Service: sim.Duration(svc)})
	}
	return out, nil
}

// DumpReplayCSV writes samples in LoadReplayCSV's format, e.g. to capture
// a synthetic app's trace for offline experimentation.
func DumpReplayCSV(w io.Writer, specs []FeatureSpec, samples []ReplaySample) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(specs)+1)
	header = append(header, "service_s")
	for _, s := range specs {
		header = append(header, s.Name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range samples {
		rec := make([]string, 0, len(specs)+1)
		rec = append(rec, strconv.FormatFloat(float64(s.Service), 'g', -1, 64))
		for _, f := range s.Features {
			rec = append(rec, strconv.FormatFloat(f, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CaptureReplay records n samples from any App into replay form (the
// test/demo path for producing traces).
func CaptureReplay(app App, n int, seed int64) []ReplaySample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]ReplaySample, n)
	for i := range out {
		r := app.Generate(rng)
		out[i] = ReplaySample{Features: r.Features, Service: r.ServiceBase}
	}
	return out
}
