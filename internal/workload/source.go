package workload

import (
	"errors"
	"fmt"

	"retail/internal/sim"
)

// Source is one run's request stream, and the one place the choice among
// the three kinds is made: a Poisson Generator for App at RPS, a cohort
// Spec's CohortGenerator, or a recorded Replay's Player, each optionally
// tapped into Record on its way to the server. core.Run and
// cluster.RunFleet build one from their config and drive it with Open,
// Classes and Start; the CLIs get theirs from LoadSource.
type Source struct {
	App App
	// RPS is the Poisson rate. With a Spec it rescales the spec's
	// aggregate (0 runs the spec's own rates); with a Replay it must be 0,
	// since a replay runs at its recorded rate.
	RPS    float64
	Seed   int64
	Spec   *Spec
	Replay *Trace
	// Record taps every arrival, warmup included. It needs a Spec, or a
	// Replay to re-record (the record → replay → re-record closure check).
	Record *Trace

	arrivals int // expected over the horizon Open was given
}

// checkKinds is the one statement of which sources combine: a spec and a
// replay exclude each other, and only a spec's generated stream is
// recorded.
func checkKinds(spec, replay, record bool) error {
	switch {
	case spec && replay:
		return errors.New("workload: spec and replay are mutually exclusive")
	case record && !spec:
		return errors.New("workload: record requires a spec (only generated streams are recorded)")
	}
	return nil
}

// check applies checkKinds (record: the stream will be recorded) and
// returns the app a spec or replay names, nil for a Poisson stream. That
// app must be app when app is set, and a replay must hold a record.
func (s *Source) check(record bool, app string) (named App, err error) {
	if err := checkKinds(s.Spec != nil, s.Replay != nil, record); err != nil {
		return nil, err
	}
	switch {
	case s.Replay != nil && len(s.Replay.Records) == 0:
		return nil, errors.New("workload: replay trace has no records")
	case s.Replay != nil:
		named, err = s.Replay.SingleApp()
	case s.Spec != nil:
		named, err = s.Spec.SingleApp()
	}
	if err == nil && named != nil && app != "" && named.Name() != app {
		err = fmt.Errorf("workload: the source serves app %q, not %q", named.Name(), app)
	}
	return named, err
}

// Resolve checks a source before any calibration and sets its App: a spec
// or replay names its own, which must be app when explicit (the operator
// gave -app); a Poisson stream serves app. record says the caller will
// record the stream.
func (s *Source) Resolve(app string, explicit, record bool) error {
	want := ""
	if explicit {
		want = app
	}
	named, err := s.check(record, want)
	if s.App = named; err == nil && named == nil {
		if s.App = ByName(app); s.App == nil {
			err = fmt.Errorf("workload: unknown app %q", app)
		}
	}
	return err
}

// LoadSource resolves the -spec/-record/-replay flags the CLIs share
// against -app (explicit: given on the command line). It checks the
// combination before touching a file, loads the spec (a builtin name or a
// JSON file) or the replay trace, and Resolves the app. RPS, Seed and
// Record stay the caller's.
func LoadSource(app string, explicit bool, spec, record, replay string) (Source, error) {
	var src Source
	if err := checkKinds(spec != "", replay != "", record != ""); err != nil {
		return src, err
	}
	var err error
	switch {
	case spec != "":
		src.Spec, err = LoadSpec(spec)
	case replay != "":
		src.Replay, err = ReadTraceFile(replay)
	}
	if err == nil {
		err = src.Resolve(app, explicit, record != "")
	}
	return src, err
}

// Open validates the source for a run of horizon (warmup + measurement)
// virtual seconds and returns its offered rate: RPS for a Poisson stream,
// a spec's aggregate (Open applies an RPS rescale to Spec), or a replay's
// records over the horizon.
func (s *Source) Open(horizon sim.Duration) (rate float64, err error) {
	if s.App == nil {
		return 0, errors.New("workload: source needs an app")
	}
	// A replay may be re-recorded: the record → replay → re-record check.
	named, err := s.check(s.Record != nil && s.Replay == nil, s.App.Name())
	switch {
	case err != nil:
		return 0, err
	case s.Replay != nil && s.RPS > 0:
		return 0, fmt.Errorf("workload: a replay runs at its recorded rate; RPS %g is not applied", s.RPS)
	case named == nil && s.RPS <= 0:
		return 0, fmt.Errorf("workload: a Poisson source needs a positive RPS, got %g", s.RPS)
	}
	switch {
	case s.Replay != nil:
		rate = float64(len(s.Replay.Records)) / float64(horizon)
	case s.Spec != nil:
		if s.RPS > 0 {
			s.Spec, s.RPS = s.Spec.ScaledTo(s.RPS), 0
		}
		rate = s.Spec.TotalRPS()
	default:
		rate = s.RPS
	}
	s.arrivals = int(rate * float64(horizon))
	return rate, nil
}

// Classes returns the source's SLO class table, names and QoS′ scales
// indexed by Request.SLOClass; nil for a Poisson stream.
func (s *Source) Classes() (names []string, scales []float64) {
	switch {
	case s.Replay != nil:
		return s.Replay.Header.Classes, s.Replay.Header.Scales
	case s.Spec != nil:
		return s.Spec.Classes()
	}
	return nil, nil
}

// Start puts the Record tap in front of sink and starts the source's
// generator on e, drawing requests from pool; the returned func stops it.
// Call it after Open.
func (s *Source) Start(e *sim.Engine, pool *RequestPool, sink func(*sim.Engine, *Request)) (stop func()) {
	if s.Record != nil {
		// 3 % + 64 of headroom over the expected count keeps the presized
		// records from regrowing near their end.
		n := s.arrivals
		s.Record.Reserve(len(s.Record.Records) + n + n/32 + 64)
		sink = s.Record.RecordSink(sink)
	}
	switch {
	case s.Replay != nil:
		p := NewPlayer(s.Replay, sink)
		p.Pool = pool
		p.Start(e)
		return p.Stop
	case s.Spec != nil:
		g := NewCohortGenerator(s.Spec, s.Seed, sink)
		g.Pool = pool
		g.Start(e)
		return g.Stop
	}
	g := NewGenerator(s.App, s.RPS, s.Seed, sink)
	g.Pool = pool
	g.Start(e)
	return g.Stop
}
