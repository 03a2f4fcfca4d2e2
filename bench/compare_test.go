package main

import (
	"bytes"
	"strings"
	"testing"
)

// doc builds a synthetic document: one untraced run per workload named in
// vals, metric name -> samples (the value is their median).
func doc(vals map[string]map[string][]float64) *document {
	d := &document{Schema: 1, Seed: 1, Seconds: 16}
	for _, w := range workloadNames() {
		ms, ok := vals[w]
		if !ok {
			continue
		}
		r := newResult(w, 1, false)
		for name, samples := range ms {
			r.set(name, 0, samples...)
		}
		d.Runs = append(d.Runs, r)
	}
	return d
}

func statusOf(t *testing.T, rows []compareRow, metric, workload string) string {
	t.Helper()
	for _, r := range rows {
		if r.Metric == metric && r.Workload == workload {
			return r.Status
		}
	}
	t.Fatalf("no row for %s on %s", metric, workload)
	return ""
}

func TestCompareRelativeBounds(t *testing.T) {
	steady := func(v float64) []float64 { return []float64{v * 0.99, v, v, v * 1.01} }
	base := doc(map[string]map[string][]float64{
		wFleet: {"req_per_s": steady(200e3), "cpu_s_per_mreq": steady(4.5), "peak_rss_mb": {60}, "setup_s": steady(0.12)},
		wTune:  {"req_per_s": steady(600e3), "cpu_s_per_mreq": steady(3), "peak_rss_mb": {40}, "setup_s": steady(0.02)},
	})
	next := doc(map[string]map[string][]float64{
		// Faster and cheaper beyond the bound; 5 MB more RSS is under the 8 MB floor.
		wFleet: {"req_per_s": steady(300e3), "cpu_s_per_mreq": steady(3.0), "peak_rss_mb": {65}, "setup_s": steady(0.121)},
		// Slower beyond the bound; set-up doubled but both sides under the 0.05 s floor.
		wTune: {"req_per_s": steady(300e3), "cpu_s_per_mreq": steady(3.05), "peak_rss_mb": {70}, "setup_s": steady(0.04)},
	})
	rows := compareDocs(base, next)
	for _, want := range []struct{ metric, workload, status string }{
		{"req_per_s", wFleet, statusImproved},
		{"cpu_s_per_mreq", wFleet, statusImproved},
		{"peak_rss_mb", wFleet, statusUnchanged},
		{"setup_s", wFleet, statusUnchanged},
		{"req_per_s", wTune, statusRegressed},
		{"cpu_s_per_mreq", wTune, statusUnchanged},
		{"peak_rss_mb", wTune, statusRegressed},
		{"setup_s", wTune, statusUnchanged},
	} {
		if got := statusOf(t, rows, want.metric, want.workload); got != want.status {
			t.Errorf("%s on %s: %s, want %s", want.metric, want.workload, got, want.status)
		}
	}
	var out bytes.Buffer
	if code := printComparison(&out, base, next); code != 1 {
		t.Errorf("exit %d with a regressed row, want 1\n%s", code, out.String())
	}
	if code := printComparison(&out, base, base); code != 0 {
		t.Errorf("exit %d comparing a document with itself, want 0", code)
	}
}

// A spread wider than the bound makes a within-bound change unresolved,
// never unchanged; a change beyond the bound is still a regression.
func TestCompareUnresolved(t *testing.T) {
	noisy := func(v float64) []float64 { return []float64{v * 0.6, v * 0.8, v, v * 1.2, v * 1.4} }
	base := doc(map[string]map[string][]float64{wNode: {"req_per_s": noisy(200e3)}})
	same := doc(map[string]map[string][]float64{wNode: {"req_per_s": noisy(195e3)}})
	worse := doc(map[string]map[string][]float64{wNode: {"req_per_s": noisy(100e3)}})
	if got := statusOf(t, compareDocs(base, same), "req_per_s", wNode); got != statusUnresolved {
		t.Errorf("within bound under a wide spread: %s, want %s", got, statusUnresolved)
	}
	if got := statusOf(t, compareDocs(base, worse), "req_per_s", wNode); got != statusRegressed {
		t.Errorf("beyond bound under a wide spread: %s, want %s", got, statusRegressed)
	}
	var out bytes.Buffer
	if code := printComparison(&out, base, same); code != 0 {
		t.Errorf("exit %d with only an unresolved row, want 0", code)
	}
	if !strings.Contains(out.String(), statusUnresolved) {
		t.Errorf("unresolved row not printed:\n%s", out.String())
	}
}

// Simulated statistics repeat exactly at a fixed seed: any change is a
// reported change, in the metric's own direction.
func TestCompareExactMetrics(t *testing.T) {
	base := doc(map[string]map[string][]float64{
		wFleet: {"sim_energy_j_per_req": {0.0341759}, "sim_qos_violation_frac": {0.000317}},
		wSweep: {"retail_saving_vs_rubik_pct": {4.12311}, "sim_energy_j_per_req": {0.0185947}},
	})
	next := doc(map[string]map[string][]float64{
		wFleet: {"sim_energy_j_per_req": {0.0341760}, "sim_qos_violation_frac": {0.000317}},
		wSweep: {"retail_saving_vs_rubik_pct": {4.2}, "sim_energy_j_per_req": {0.0185947}},
	})
	rows := compareDocs(base, next)
	for _, want := range []struct{ metric, workload, status string }{
		{"sim_energy_j_per_req", wFleet, statusRegressed}, // one part in 3e5 more joules
		{"sim_qos_violation_frac", wFleet, statusUnchanged},
		{"retail_saving_vs_rubik_pct", wSweep, statusImproved},
		{"sim_energy_j_per_req", wSweep, statusUnchanged},
	} {
		if got := statusOf(t, rows, want.metric, want.workload); got != want.status {
			t.Errorf("%s on %s: %s, want %s", want.metric, want.workload, got, want.status)
		}
	}
	for _, r := range rows {
		if r.Metric == "retail_saving_vs_rubik_pct" && r.Workload != wSweep {
			t.Errorf("retail_saving_vs_rubik_pct compared on %s, where it is not defined", r.Workload)
		}
	}
}

// live_max_rate_ok_rps moves in steps of the rate ladder, and a higher
// fail_frac fails the comparison even inside its absolute bound.
func TestCompareStepRuleAndFailFrac(t *testing.T) {
	at := func(rate, fail float64) *document {
		return doc(map[string]map[string][]float64{wLive: {"live_max_rate_ok_rps": {rate}, "fail_frac": {fail}}})
	}
	for _, tc := range []struct {
		base, next float64
		status     string
	}{
		{30000, 30000, statusUnchanged},
		{30000, 15000, statusRegressed},
		{5000, 15000, statusImproved},
		{15000, 0, statusRegressed}, // no step is ok any more
	} {
		if got := statusOf(t, compareDocs(at(tc.base, 0), at(tc.next, 0)), "live_max_rate_ok_rps", wLive); got != tc.status {
			t.Errorf("live_max_rate_ok_rps %v -> %v: %s, want %s", tc.base, tc.next, got, tc.status)
		}
	}
	var out bytes.Buffer
	if got := statusOf(t, compareDocs(at(30000, 0), at(30000, 0.0005)), "fail_frac", wLive); got != statusUnchanged {
		t.Errorf("fail_frac +0.0005: %s, want %s (inside the absolute bound)", got, statusUnchanged)
	}
	if code := printComparison(&out, at(30000, 0), at(30000, 0.0005)); code != 1 {
		t.Errorf("exit %d with a higher fail_frac, want 1", code)
	}
	if got := statusOf(t, compareDocs(at(30000, 0), at(30000, 0.01)), "fail_frac", wLive); got != statusRegressed {
		t.Errorf("fail_frac +0.01: %s, want %s", got, statusRegressed)
	}
}
