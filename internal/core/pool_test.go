package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"retail/internal/workload"
)

// resultDigest hashes everything a Result reports — every float by its
// bits, every class row, every collected sample — so two runs agree on the
// digest only if they agree on all of it.
func resultDigest(res *Result) string {
	var b strings.Builder
	bits := func(xs ...float64) {
		for _, x := range xs {
			fmt.Fprintf(&b, "%016x ", math.Float64bits(x))
		}
	}
	fmt.Fprintf(&b, "%s %s %d %d %d %d %v\n", res.Manager, res.App,
		res.Completed, res.Dropped, res.Violations, res.Transitions, res.QoSMet)
	bits(res.RPS, res.AvgPowerW, res.EnergyJ, res.MeanLatency,
		res.P50, res.P95, res.P99, res.TailAtQoSPct, res.QoSTarget)
	for _, c := range res.Classes {
		fmt.Fprintf(&b, "\n%s %d %d %v ", c.Class, c.Completed, c.Dropped, c.QoSMet)
		bits(c.QoSScale, c.P50, c.P95, c.P99, c.TailAtQoSPct, c.QoSTarget)
	}
	for _, s := range res.Samples {
		fmt.Fprintf(&b, "\n%d ", s.Level)
		bits(s.Features...)
		bits(s.Service)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestRunPooledMatchesUnpooled pins fixed-seed runs through all three
// request sources to digests taken before core.Run recycled requests (one
// allocation per request, samples aliasing the request's own features):
// pooling changes allocation counts and nothing else.
func TestRunPooledMatchesUnpooled(t *testing.T) {
	const (
		wantPoisson = "debe2064ceca051c9ef54484591b44b361e2dbc3a0a344c63a4156f348d6cd3c"
		wantSpec    = "29c86919d31c8fd48f5e5df91fa6c8afbdd13929e67b562252481ee25e62d23d"
		wantTrace   = "c5c91d472b194b47a31cc2cedb59678fa7ac44483d3db196ef5617a76e9c01b0"
		wantReplay  = "c7fd0214e167f9cee1deed1645082916268000b51031becdd98548e19ebb7ed0"
	)
	p := testPlatform()

	// Poisson generator, an app with a late feature (stage-1 readiness is
	// live), queues deep enough that recycled requests are in flight next
	// to fresh ones, samples collected.
	xap := calibrateOrDie(t, "xapian")
	res, err := Run(RunConfig{
		App: xap.App, Platform: p, Manager: xap.NewReTail(),
		RPS: 0.9 * workload.MaxLoadRPS(xap.App, p.Workers), Warmup: 0.5, Duration: 2, Seed: 7,
		CollectSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 || len(res.Samples) != res.Completed {
		t.Fatalf("samples %d, completed %d", len(res.Samples), res.Completed)
	}
	if got := resultDigest(res); got != wantPoisson {
		t.Errorf("poisson run digest %s, want %s", got, wantPoisson)
	}

	// Cohort generator with SLO classes and the record tap.
	mos := calibrateOrDie(t, "moses")
	spec := workload.BuiltinSpec("slo-mix")
	tr := workload.NewTrace(spec, 3)
	res, err = Run(RunConfig{
		App: mos.App, Platform: p, Manager: mos.NewReTail(),
		Spec: spec, RPS: 0.8 * workload.MaxLoadRPS(mos.App, p.Workers), Warmup: 0.5, Duration: 3, Seed: 3,
		Record: tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) < 2 {
		t.Fatalf("slo-mix reported %d classes", len(res.Classes))
	}
	if got := resultDigest(res); got != wantSpec {
		t.Errorf("spec run digest %s, want %s", got, wantSpec)
	}
	if got, err := tr.SHA(); err != nil || got != wantTrace {
		t.Errorf("recorded trace SHA %s (err %v), want %s", got, err, wantTrace)
	}

	// Player over the trace just recorded.
	res, err = Run(RunConfig{
		App: mos.App, Platform: p, Manager: mos.NewReTail(),
		Replay: tr, Warmup: 0.5, Duration: 3, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := resultDigest(res); got != wantReplay {
		t.Errorf("replay run digest %s, want %s", got, wantReplay)
	}
}

// TestRunSamplesOwnTheirFeatures: with requests recycled, every collected
// sample must hold a private copy of its features — no two samples (and no
// later request) may share backing storage.
func TestRunSamplesOwnTheirFeatures(t *testing.T) {
	p := testPlatform()
	cal := calibrateOrDie(t, "xapian")
	res, err := Run(RunConfig{
		App: cal.App, Platform: p, Manager: cal.NewMaxFreq(),
		RPS: 800, Warmup: 0.5, Duration: 2, Seed: 5, CollectSamples: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) < 1000 {
		t.Fatalf("only %d samples", len(res.Samples))
	}
	// The ground truth ties service time to doc_count, so a sample whose
	// features were overwritten by a later request shows as a mismatch
	// between the two; then stamp every sample and check no stamp was
	// overwritten through a shared backing array.
	doc := workload.FeatureIndex(cal.App, "doc_count")
	for i, s := range res.Samples {
		want := workload.XapianServiceMs(s.Features[doc]) * 1e-3
		if s.Service < 0.8*want || s.Service > 1.25*want {
			t.Fatalf("sample %d: service %v s does not fit its own doc_count %v (model %v s)", i, s.Service, s.Features[doc], want)
		}
	}
	for i := range res.Samples {
		res.Samples[i].Features[0] = float64(-i - 1)
	}
	for i, s := range res.Samples {
		if s.Features[0] != float64(-i-1) {
			t.Fatalf("sample %d shares feature storage with sample %d", i, int(-s.Features[0])-1)
		}
	}
}
