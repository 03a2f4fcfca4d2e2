package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/workload"
)

// pinnedSimSHA are the digests of one short fixed-seed simulated run per
// policy and parameterization. A change that alters no policy's behaviour
// leaves every one of them unchanged.
var pinnedSimSHA = map[string]string{
	"retail/default": "ad28034a9e4e04ed",
	"retail/tuned":   "d78a063214c4c20a",
	"rubik/default":  "4f44ef738ca41c65",
	"rubik/tuned":    "c85cbf9af4349e1f",
	"gemini/default": "bf18f304df4912ec",
	"gemini/tuned":   "e78e84eb4c8a5ee8",
	"eetl/default":   "7f4cefcea43aca2a",
	"eetl/tuned":     "cb10a81c49e48cd7",
}

// TestPolicyDecisionsPinned: the simulator side of the policy pin (the
// wall-clock side lives in internal/live). Each of the four managed
// policies, built by NewManagerParams under zero and under non-default
// Params, runs Moses at 60% utilization for three virtual seconds; the
// digest covers the run's result and the manager's own inference and
// boost counters.
func TestPolicyDecisionsPinned(t *testing.T) {
	app := workload.ByName("moses")
	p := testPlatform()
	cal, err := Calibrate(app, p, 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	gemNN := nn.TunedConfig(1, 1, 8, 10, 32)
	rps := 0.6 * float64(p.Workers) / workload.MeanServiceAtMax(app)
	tuned := map[string]policy.Params{
		"retail": {Monitor: policy.MonitorParams{StepFrac: 0.1, Cap: 1.05, Alpha: 0.5, MinSamples: 10, Span: 0.3}},
		"rubik":  {Rubik: policy.RubikParams{Quantile: 0.99}},
		"gemini": {Gemini: policy.GeminiParams{BoostFrac: 0.6}},
		"eetl":   {EETL: policy.EETLParams{SlowFrac: 0.25}},
	}
	for _, pol := range []string{"retail", "rubik", "gemini", "eetl"} {
		for _, variant := range []string{"default", "tuned"} {
			name := pol + "/" + variant
			t.Run(name, func(t *testing.T) {
				var params policy.Params
				if variant == "tuned" {
					params = tuned[pol]
				}
				m, err := cal.NewManagerParams(pol, &gemNN, params)
				if err != nil {
					t.Fatal(err)
				}
				res, err := Run(RunConfig{App: app, Platform: p, Manager: m,
					RPS: rps, Warmup: 0.5, Duration: sim.Duration(3), Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				var b [8]byte
				put := func(v uint64) {
					binary.LittleEndian.PutUint64(b[:], v)
					h.Write(b[:])
				}
				for _, v := range []int{res.Completed, res.Dropped, res.Violations, res.Transitions} {
					put(uint64(v))
				}
				for _, v := range []float64{res.AvgPowerW, res.EnergyJ, res.MeanLatency, res.P50, res.P95, res.P99, res.TailAtQoSPct} {
					put(math.Float64bits(v))
				}
				if c, ok := m.(interface{ Inferences() uint64 }); ok {
					put(c.Inferences())
				}
				if c, ok := m.(interface{ Boosts() int }); ok {
					put(uint64(c.Boosts()))
				}
				if got := hex.EncodeToString(h.Sum(nil))[:16]; got != pinnedSimSHA[name] {
					t.Errorf("%s: run digest %s, want %s (completed %d, dropped %d)",
						name, got, pinnedSimSHA[name], res.Completed, res.Dropped)
				}
			})
		}
	}
}
