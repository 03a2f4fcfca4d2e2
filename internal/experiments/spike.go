package experiments

import (
	"fmt"

	"retail/internal/core"
	"retail/internal/manager"
	"retail/internal/sim"
	"retail/internal/trace"
	"retail/internal/workload"
)

// LoadSpike exercises the latency monitor's emergency path (§VI-C): "in
// the worst case of sudden load spikes, QoS′ can be reduced from 100% to
// 0% of QoS in 2 s thanks to the fine-grained monitoring every 100 ms,
// running all the requests at the maximum frequency until the load
// recovers."
//
// The experiment runs at a comfortable 40% load, then doubles the arrival
// rate to ~120% of max load for SpikeDuration, then returns to 40%.

// LoadSpikeResult records the monitor's reaction.
type LoadSpikeResult struct {
	App        string
	SpikeStart sim.Time
	SpikeEnd   sim.Time

	QoSPrimeTrace []manager.TracePoint
	// CollapseSeconds is the time from spike onset until QoS′ reached its
	// floor (≤ 10% of QoS); -1 if it never collapsed.
	CollapseSeconds float64
	// RecoveredQoSPrime is QoS′ at the end of the run (after the spike).
	RecoveredQoSPrime sim.Duration
	// PostSpikeTailOK reports whether the tail returned under QoS.
	PostSpikeTailOK bool
	// Flight is the span flight recorder, populated when Config.Trace is
	// set (nil otherwise). Its Chrome export shows the spike as a burst of
	// queueing-attributed violations followed by the max-frequency clamp.
	Flight *trace.FlightRecorder
}

// LoadSpikes runs the spike scenario for several applications as one
// sweep: each app's calibration and simulation is an independent cell, so
// the scenarios run concurrently under Config.Parallel while the results
// come back in the given app order.
func LoadSpikes(cfg Config, appNames []string) ([]*LoadSpikeResult, error) {
	cells := make([]SweepCell[*LoadSpikeResult], 0, len(appNames))
	for _, name := range appNames {
		cells = append(cells, SweepCell[*LoadSpikeResult]{
			Label: "spike/" + name,
			Run:   func() (*LoadSpikeResult, error) { return LoadSpike(cfg, name) },
		})
	}
	return RunSweep(cfg.Parallel, cells)
}

// LoadSpike runs the spike scenario for one application.
func LoadSpike(cfg Config, appName string) (*LoadSpikeResult, error) {
	app := workload.ByName(appName)
	if app == nil {
		return nil, fmt.Errorf("experiments: unknown app %q", appName)
	}
	cal, err := core.Calibrate(app, cfg.Platform, cfg.SamplesPerLevel, cfg.Seed)
	if err != nil {
		return nil, err
	}
	maxLoad := core.CalibrateMaxLoad(app, cfg.Platform, cfg.Seed)
	baseRPS := maxLoad * 0.4
	spikeRPS := maxLoad * 1.2

	rt := cal.NewReTail()
	rt.EnableTraces()

	e := sim.NewEngine()
	srv := serverFor(cfg.Platform, app, cfg.Seed)
	rt.Attach(e, srv)
	var flight *trace.FlightRecorder
	if cfg.Trace {
		flight = trace.NewFlightRecorder(trace.FlightRecorderConfig{QoS: app.QoS()})
		srv.Observe(flight)
	}
	lat := newTimedTail(app.QoS().Percentile)
	srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
		lat.add(en.Now(), float64(r.Sojourn()))
	}
	gen := workload.NewGenerator(app, baseRPS, cfg.Seed+3, srv.Submit)
	gen.Start(e)

	const spikeStart, spikeEnd, horizon = 4.0, 7.0, 16.0
	e.At(spikeStart, "spike-on", func(*sim.Engine) { gen.SetRPS(spikeRPS) })
	e.At(spikeEnd, "spike-off", func(*sim.Engine) { gen.SetRPS(baseRPS) })
	e.Run(horizon)
	gen.Stop()

	res := &LoadSpikeResult{App: app.Name(), SpikeStart: spikeStart, SpikeEnd: spikeEnd, Flight: flight}
	res.QoSPrimeTrace, _ = rt.Traces()
	res.CollapseSeconds = -1
	floor := 0.10 * float64(app.QoS().Latency)
	for _, p := range res.QoSPrimeTrace {
		if p.At >= spikeStart && p.Value <= floor {
			res.CollapseSeconds = float64(p.At - spikeStart)
			break
		}
	}
	res.RecoveredQoSPrime = rt.QoSPrime()
	if tail, ok := lat.tail(horizon, 3.0); ok {
		res.PostSpikeTailOK = tail <= float64(app.QoS().Latency)
	}
	return res, nil
}

// FlightRecorder returns the attached span recorder (nil when tracing is
// off), letting callers export without knowing the concrete result type.
func (r *LoadSpikeResult) FlightRecorder() *trace.FlightRecorder { return r.Flight }

// Render prints the QoS′ trajectory around the spike.
func (r *LoadSpikeResult) Render() string {
	t := &table{header: []string{"t", "QoS'"}}
	for i, p := range r.QoSPrimeTrace {
		if i%5 != 0 {
			continue
		}
		marker := ""
		if p.At >= r.SpikeStart && p.At <= r.SpikeEnd {
			marker = " <spike>"
		}
		t.add(fmt.Sprintf("%.1fs", float64(p.At)), dur(p.Value)+marker)
	}
	collapse := "never"
	if r.CollapseSeconds >= 0 {
		collapse = fmt.Sprintf("%.1fs", r.CollapseSeconds)
	}
	return fmt.Sprintf(
		"Load spike — %s: spike %.0f–%.0fs; QoS′ collapse in %s; recovered QoS′=%v; post-spike tail ok=%v\n%s",
		r.App, float64(r.SpikeStart), float64(r.SpikeEnd), collapse, r.RecoveredQoSPrime, r.PostSpikeTailOK, t.String())
}
