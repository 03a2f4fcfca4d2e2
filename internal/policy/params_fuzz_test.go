package policy

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"retail/internal/cpu"
)

// hostileParams are accepted-or-rejected corners a tuning file can reach:
// the largest finite values in every float field, the slow level at the
// max, and a class table of 100 000 entries.
var hostileParams = []string{
	`{"version":1,"monitor":{"interval_s":1e308,"step_frac":1e308,"relax_below":1e308,"guard_band":1e308,` +
		`"correction_band":1e308,"cap":1e308,"span_s":1e308,"alpha":1},"degrade":{"shed_factor":1e308,` +
		`"deadline_factor":1e308,"retry_backoff_s":1e308},"rubik":{"quantile":1e-308},"gemini":{"boost_frac":1e308}}`,
	`{"version":1,"eetl":{"slow_frac":1,"quantile":0.999999},"monitor":{"min_keep":9223372036854775807,"max_window":1}}`,
	`{"version":1,"class_scales":[` + strings.Repeat("1e308,", 99999) + `1e-308]}`,
}

// FuzzParseParams holds the params parser — the -params file every CLI
// reads — to its contract on arbitrary bytes: it never panics; it
// allocates at most 64 KiB plus 64 bytes per input byte; an accepted
// value re-encodes canonically to bytes that parse back to the same SHA;
// and every accepted value builds all four policies through New, under
// both monitor postures, with finite thresholds. Seeds: the default
// params, the tune golden's winner and the hostile corners above.
func FuzzParseParams(f *testing.F) {
	def, err := DefaultParams().CanonicalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(def)
	// The tune golden's winner, named by its SHA in the winners table.
	winner := []byte(`{"version":1,"monitor":{"guard_band":0.9,"alpha":1}}`)
	if p, err := ParseParams(bytes.NewReader(winner)); err != nil || p.SHA() != "f3615143b90157bd" {
		f.Fatalf("tune winner seed: SHA %s, err %v; want f3615143b90157bd", p.SHA(), err)
	}
	f.Add(winner)
	for _, h := range hostileParams {
		f.Add([]byte(h))
	}
	profile := []float64{0.4e-3, 0.9e-3, 1.3e-3, 2.2e-3, 5e-3}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := ParseParams(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(data)); grew > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		enc, err := p.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted params do not re-encode: %v", err)
		}
		back, err := ParseParams(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("canonical re-encoding rejected: %v", err)
		}
		if back.SHA() != p.SHA() {
			t.Fatalf("round trip changed the SHA: %s became %s", p.SHA(), back.SHA())
		}
		tick := 0.1
		if p.Monitor.Interval != 0 {
			tick = p.Monitor.Interval
		}
		for _, posture := range []Posture{SimPosture, LivePosture} {
			env := Env{QoS: 0.01, Percentile: 99, Grid: cpu.DefaultGrid(), ProfileAtMax: profile, Tick: tick, Posture: posture}
			for _, name := range Names() {
				pol, err := New(name, p, env)
				if err != nil {
					t.Fatalf("accepted params do not build %s: %v", name, err)
				}
				checkFinite(t, pol, env.Grid)
			}
		}
	})
}

// checkFinite drives pol through a short observe/tick sequence and checks
// every threshold it exposes is finite and non-negative.
func checkFinite(t *testing.T, pol Policy, grid *cpu.Grid) {
	t.Helper()
	ok := func(what string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Fatalf("%s: %s = %v", pol.Name(), what, v)
		}
	}
	for i := 0; i < 50; i++ {
		now := float64(i) * 0.01
		pol.Observe(now, 0.004+0.0004*float64(i%20))
		pol.Tick(now)
	}
	ok("QoS′", pol.QoSPrime())
	switch pol := pol.(type) {
	case *Retail:
		ok("class 0 budget", pol.Budget(0))
		ok("class 255 budget", pol.Budget(255))
	case *Rubik:
		ok("tail at max", pol.Tail(grid.MaxLevel()))
		ok("tail at min", pol.Tail(0))
	case *Gemini:
		ok("checkpoint", pol.Checkpoint(1e-3))
	case *EETL:
		thr, _, _ := pol.Boost(pol.Slow(), 0)
		ok("threshold", thr)
		if s := pol.Slow(); s < 0 || s > grid.MaxLevel() {
			t.Fatalf("eetl: slow level %d outside the grid", s)
		}
	}
}
