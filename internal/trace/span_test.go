package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"retail/internal/core"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// flightRun drives a ReTail-managed server with a FlightRecorder
// observing it (and so taking the manager's decisions).
func flightRun(t *testing.T, cfg FlightRecorderConfig, rps float64, horizon sim.Time) (*FlightRecorder, *server.Server) {
	t.Helper()
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(4)
	cal, err := core.Calibrate(app, platform, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.QoS == (workload.QoS{}) {
		cfg.QoS = app.QoS()
	}
	srv := server.New(server.Config{
		App: app, Workers: platform.Workers, Grid: platform.Grid,
		Power: platform.Power, Trans: platform.Trans, Seed: 1,
	})
	e := sim.NewEngine()
	m := cal.NewReTail()
	m.Attach(e, srv)
	fr := NewFlightRecorder(cfg)
	srv.Observe(fr)
	gen := workload.NewGenerator(app, rps, 3, srv.Submit)
	gen.Start(e)
	e.Run(horizon)
	gen.Stop()
	return fr, srv
}

func TestFlightRecorderSpansCarryAttribution(t *testing.T) {
	fr, srv := flightRun(t, FlightRecorderConfig{SampleEvery: 1}, 900, 2)
	if srv.Completed() == 0 {
		t.Fatal("no completions")
	}
	spans := fr.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans retained")
	}
	decided, predicted, bound := 0, 0, 0
	for _, sp := range spans {
		if sp.Dropped {
			t.Fatalf("unexpected dropped span under ReTail: %+v", sp)
		}
		if sp.End < sp.Start || sp.Start < sp.Arrival {
			t.Fatalf("span out of order: %+v", sp)
		}
		if sp.App != "xapian" {
			t.Fatalf("span app = %q", sp.App)
		}
		if sp.Decisions > 0 {
			decided++
			if sp.QoSPrime <= 0 {
				t.Fatalf("decided span missing QoS': %+v", sp)
			}
		}
		if !math.IsNaN(sp.PredictedService) {
			predicted++
			if sp.PredictedService <= 0 {
				t.Fatalf("non-positive prediction: %+v", sp)
			}
		}
		if sp.Binding != 0 {
			bound++
		}
	}
	if decided == 0 || predicted == 0 || bound == 0 {
		t.Fatalf("attribution missing: decided=%d predicted=%d bound=%d of %d spans",
			decided, predicted, bound, len(spans))
	}
	if len(fr.FreqPoints()) == 0 {
		t.Fatal("no frequency counter points")
	}
}

func TestFlightRecorderTailSampling(t *testing.T) {
	// Tight sampling (1 of 64) with a tiny artificial QoS so most
	// completions violate: violations must all be retained (up to
	// capacity) regardless of the sampling rate.
	cfg := FlightRecorderConfig{
		QoS:         workload.QoS{Latency: 1e-6, Percentile: 99},
		SampleEvery: 64,
		Capacity:    1 << 14,
	}
	fr, srv := flightRun(t, cfg, 600, 2)
	st := fr.Stats()
	if st.Violations == 0 {
		t.Fatal("expected violations under 1µs QoS")
	}
	if st.Violations != uint64(srv.Completed()) {
		t.Fatalf("violations %d != completed %d under 1µs QoS", st.Violations, srv.Completed())
	}
	violSpans := 0
	for _, sp := range fr.Spans() {
		if sp.Sojourn() > cfg.QoS.Latency {
			violSpans++
		}
	}
	if uint64(violSpans) != st.Violations {
		t.Fatalf("retained %d violating spans, recorded %d violations", violSpans, st.Violations)
	}
}

func TestFlightRecorderBounded(t *testing.T) {
	cfg := FlightRecorderConfig{Capacity: 32, SampleEvery: 1, FreqCapacity: 64}
	fr, srv := flightRun(t, cfg, 900, 2)
	if srv.Completed() <= 64 {
		t.Fatalf("run too small (%d completions) to exercise the rings", srv.Completed())
	}
	if n := len(fr.Spans()); n > 64 {
		t.Fatalf("spans %d exceed 2×capacity", n)
	}
	if n := len(fr.FreqPoints()); n > 64 {
		t.Fatalf("freq points %d exceed capacity", n)
	}
	if st := fr.Stats(); st.Total != uint64(srv.Completed()) {
		t.Fatalf("total %d != completed %d", st.Total, srv.Completed())
	}
}

func TestFlightRecorderPreservesBehavior(t *testing.T) {
	// Observing with the recorder, which also takes every decision, must
	// not change simulated behavior: same completions, same decision
	// count, same inference count.
	app := workload.NewImgDNN()
	platform := core.DefaultPlatform().WithWorkers(2)
	cal, err := core.Calibrate(app, platform, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(traced bool) (int, int, uint64) {
		srv := server.New(server.Config{
			App: app, Workers: 2, Grid: platform.Grid,
			Power: platform.Power, Trans: platform.Trans, Seed: 1,
		})
		e := sim.NewEngine()
		m := cal.NewReTail()
		m.Attach(e, srv)
		if traced {
			srv.Observe(NewFlightRecorder(FlightRecorderConfig{QoS: app.QoS()}))
		}
		gen := workload.NewGenerator(app, 300, 5, srv.Submit)
		gen.Start(e)
		e.Run(2)
		gen.Stop()
		return srv.Completed(), m.Decisions(), m.Inferences()
	}
	c0, d0, i0 := run(false)
	c1, d1, i1 := run(true)
	if c0 != c1 || d0 != d1 || i0 != i1 {
		t.Fatalf("tracing changed behavior: completions %d→%d decisions %d→%d inferences %d→%d",
			c0, c1, d0, d1, i0, i1)
	}
}

// dropEvery is a stub manager that sheds every Nth arrival — the Gemini
// drop path reduced to its hooks-surface essentials.
type dropEvery struct {
	server.NoopHooks
	n, seen int
}

func (d *dropEvery) Name() string                           { return "dropper" }
func (d *dropEvery) Attach(e *sim.Engine, s *server.Server) { s.Hooks = d }
func (d *dropEvery) Arrival(*sim.Engine, *server.Worker, *workload.Request) bool {
	d.seen++
	return d.seen%d.n != 0
}

func droppedRun(t *testing.T) (*FlightRecorder, *server.Server) {
	t.Helper()
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(2)
	srv := server.New(server.Config{
		App: app, Workers: 2, Grid: platform.Grid,
		Power: platform.Power, Trans: platform.Trans, Seed: 1,
	})
	e := sim.NewEngine()
	d := &dropEvery{n: 3}
	d.Attach(e, srv)
	fr := NewFlightRecorder(FlightRecorderConfig{QoS: app.QoS()})
	srv.Observe(fr)
	gen := workload.NewGenerator(app, 400, 3, srv.Submit)
	gen.Start(e)
	e.Run(1)
	gen.Stop()
	return fr, srv
}

func TestFlightRecorderKeepsDroppedSpans(t *testing.T) {
	fr, srv := droppedRun(t)
	if srv.Dropped() == 0 {
		t.Fatal("stub manager dropped nothing")
	}
	st := fr.Stats()
	if st.Dropped != uint64(srv.Dropped()) {
		t.Fatalf("flight recorder saw %d drops, server dropped %d", st.Dropped, srv.Dropped())
	}
	spanDrops := 0
	for _, sp := range fr.Spans() {
		if sp.Dropped {
			spanDrops++
			if sp.End != sp.Arrival || sp.ServiceTime() != 0 {
				t.Fatalf("dropped span has execution time: %+v", sp)
			}
		}
	}
	if spanDrops == 0 {
		t.Fatal("no dropped spans retained (drops are always-keep)")
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	fr, _ := flightRun(t, FlightRecorderConfig{SampleEvery: 4, Capacity: 128}, 900, 2)
	var buf bytes.Buffer
	if err := fr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var slices, counters, meta int
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
			if ev.Pid == 1 {
				for _, key := range []string{"level", "actual_us", "queue_at_arrival"} {
					if _, ok := ev.Args[key]; !ok {
						t.Fatalf("slice %q missing arg %s", ev.Name, key)
					}
				}
			}
		case "C":
			counters++
		case "M":
			meta++
		}
	}
	if slices == 0 || counters == 0 || meta == 0 {
		t.Fatalf("missing event classes: slices=%d counters=%d meta=%d", slices, counters, meta)
	}
}

func TestSpanCSV(t *testing.T) {
	fr, _ := flightRun(t, FlightRecorderConfig{SampleEvery: 4, Capacity: 64}, 900, 2)
	var buf bytes.Buffer
	if err := fr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(fr.Spans())+1 {
		t.Fatalf("csv rows %d, want %d spans + header", len(lines), len(fr.Spans()))
	}
	if !strings.HasPrefix(lines[0], "req_id,app,worker") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestAuditAttributesEveryViolation(t *testing.T) {
	// A QoS tight enough that violations occur but not so tight that
	// everything violates.
	cfg := FlightRecorderConfig{
		QoS:         workload.QoS{Latency: 4e-3, Percentile: 99},
		SampleEvery: 1,
	}
	fr, _ := flightRun(t, cfg, 900, 2)
	a := fr.Audit()
	if a.Violations == 0 {
		t.Skip("no violations at this load; audit attribution not exercised")
	}
	attributed := 0
	for _, c := range []Cause{CauseQueueing, CauseMispredict, CauseDecisionDelay} {
		attributed += a.ByCause[c]
	}
	if attributed != a.Violations {
		t.Fatalf("attributed %d of %d violations", attributed, a.Violations)
	}
	if len(a.ViolationSpans) != a.Violations {
		t.Fatalf("retained %d violation spans of %d", len(a.ViolationSpans), a.Violations)
	}
	if len(a.PredErr) == 0 {
		t.Fatal("no prediction-error rows")
	}
	for _, r := range a.PredErr {
		if r.N == 0 || r.AbsP50 < 0 || r.AbsP99 < r.AbsP50 {
			t.Fatalf("bad pred-err row: %+v", r)
		}
	}
	if out := a.Render(); !strings.Contains(out, "violations") {
		t.Fatalf("render missing summary: %q", out)
	}
}

func TestAttributeCauses(t *testing.T) {
	base := Span{Arrival: 0, Start: 0, End: 0.010, PredictedService: 0.010}
	q := base
	q.Start = 0.006 // 6 ms queueing, service 4 ms, predicted 10 ms (no underprediction)
	if c := Attribute(q); c != CauseQueueing {
		t.Fatalf("queueing span attributed %v", c)
	}
	mp := base
	mp.PredictedService = 0.002 // actual 10 ms vs predicted 2 ms
	if c := Attribute(mp); c != CauseMispredict {
		t.Fatalf("mispredict span attributed %v", c)
	}
	dd := base
	dd.PredictedService = 0.010
	dd.DecisionDelay = 0.005
	if c := Attribute(dd); c != CauseDecisionDelay {
		t.Fatalf("decision-delay span attributed %v", c)
	}
	// No components at all falls back to mispredict.
	none := Span{End: 0.010, PredictedService: math.NaN()}
	if c := Attribute(none); c != CauseMispredict {
		t.Fatalf("fallback attributed %v", c)
	}
	for c, want := range map[Cause]string{
		CauseQueueing: "queueing", CauseMispredict: "mispredict",
		CauseDecisionDelay: "decision-delay", Cause(9): "unknown",
	} {
		if c.String() != want {
			t.Fatalf("%d → %q", c, c.String())
		}
	}
}
