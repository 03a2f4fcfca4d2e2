package main

import (
	"bytes"
	_ "embed"
	"fmt"
	"time"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/workload"
)

// sizes fixes how much work each pass does. Everything that shapes the
// simulated system (nodes, workers, loads, policies) is a constant in
// the workload files; only lengths live here.
type sizes struct {
	// measure is how long an untraced run keeps making timed units; the
	// reported timings are medians over the units.
	measure time.Duration
	// repeats is how many times the traced pass makes each timed call,
	// keeping the shortest.
	repeats int

	fleetDur    float64 // measured virtual seconds per fleet-shallow unit
	nodeDur     float64 // measured virtual seconds per node-deep unit
	sweepReqs   int     // offered requests per sweep cell
	tuneHorizon float64 // virtual seconds of the pre-drawn trace
	tuneSteps   int     // grid points per searched axis

	liveSteps  [3]time.Duration // open-loop step lengths at liveRates
	liveClosed time.Duration    // closed-loop phase length

	probe float64 // multiplier on the probes' iteration counts
	// gemNN overrides Gemini's network (nil = the published 5x128); only
	// the test's tiny horizon sets it.
	gemNN *nn.Config
	// setupRepeats is how many fresh processes repeat the set-up, at least.
	setupRepeats int
}

// liveRates are the open-loop steps, in requests per second.
var liveRates = [3]float64{5000, 15000, 30000}

// fullSizes sizes a run that measures for about `seconds` seconds. The
// three workloads that split run units of about a second each (an eighth
// of the issue's single-shot horizons on fleet-shallow, 37.5 virtual s,
// and node-deep, 250; a 4.5 s trace of about 16 k records on tune-replay,
// whose units replay their candidates one after another) until the time
// is up, so a 20 s run reports the median of fifteen-odd units rather
// than one long timing. A sweep
// cannot be cut below one NN training (about 11 s); it runs twice.
func fullSizes(seconds int) sizes {
	if seconds < 1 {
		seconds = 1
	}
	s := float64(seconds)
	d := func(frac float64) time.Duration { return time.Duration(frac * s * float64(time.Second)) }
	return sizes{
		measure: d(1), repeats: 3,
		fleetDur: 37.5, nodeDur: 250, sweepReqs: 20000, tuneHorizon: 4.5, tuneSteps: 4,
		liveSteps: [3]time.Duration{d(0.1), d(0.1), d(0.5)}, liveClosed: d(0.3),
		probe: 1, setupRepeats: 3,
	}
}

// miniSizes is the reduced size at which a driver-mode traced run walks
// the workloads it was not asked for, so that every per-layer metric in
// its record is a measurement.
func miniSizes() sizes {
	ms := time.Millisecond
	return sizes{
		repeats:  1,
		fleetDur: 10, nodeDur: 60, sweepReqs: 2500, tuneHorizon: 5, tuneSteps: 2,
		liveSteps: [3]time.Duration{300 * ms, 300 * ms, 1000 * ms}, liveClosed: 500 * ms,
		probe: 0.25, setupRepeats: 1,
	}
}

// tinySizes is the test horizon: all five workloads in a few seconds.
func tinySizes() sizes {
	ms := time.Millisecond
	small := nn.TunedConfig(1, 2, 16, 8, 32)
	return sizes{
		repeats:  1,
		fleetDur: 1.5, nodeDur: 8, sweepReqs: 300, tuneHorizon: 1.5, tuneSteps: 2,
		liveSteps: [3]time.Duration{150 * ms, 150 * ms, 400 * ms}, liveClosed: 200 * ms,
		probe: 0.02, gemNN: &small, setupRepeats: 1,
	}
}

// ---------------------------------------------------------------------------
// Inputs shared by the simulator workloads.

const benchApp = "xapian"

//go:embed specs/deep-mix.json
var deepMixJSON []byte

// deepMix parses the bench-owned cohort spec.
func deepMix() (*workload.Spec, error) {
	spec, err := workload.ParseSpec(bytes.NewReader(deepMixJSON))
	if err != nil {
		return nil, fmt.Errorf("specs/deep-mix.json: %w", err)
	}
	return spec, nil
}

// capacityRPS is the rate at which `workers` cores at max frequency are
// exactly busy: the load fractions in the workload definitions are
// fractions of this.
func capacityRPS(app workload.App, workers int) float64 {
	return float64(workers) / workload.MeanServiceAtMax(app)
}

// calibrate runs the paper's calibration protocol for the bench app.
func calibrate(workers int, seed int64) (*core.Calibration, error) {
	app := workload.ByName(benchApp)
	if app == nil {
		return nil, fmt.Errorf("unknown app %q", benchApp)
	}
	return core.Calibrate(app, core.DefaultPlatform().WithWorkers(workers), 1000, seed)
}
