package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"retail/internal/telemetry"
)

func TestHashConfigStableAndSensitive(t *testing.T) {
	a := HashConfig("fleet", 4, 0.6)
	if a != HashConfig("fleet", 4, 0.6) {
		t.Fatal("hash not stable")
	}
	if a == HashConfig("fleet", 4, 0.7) {
		t.Fatal("hash insensitive to config change")
	}
	// Concatenation ambiguity: ("ab","c") must differ from ("a","bc").
	if HashConfig("ab", "c") == HashConfig("a", "bc") {
		t.Fatal("hash collapses differently-split configs")
	}
	if len(a) != 16 {
		t.Fatalf("hash length %d, want 16", len(a))
	}
}

func TestRollupMergesAcrossNodes(t *testing.T) {
	reg := telemetry.NewRegistry()
	for node := 0; node < 3; node++ {
		labels := []telemetry.Label{
			telemetry.L("app", "xapian"),
			telemetry.L("node", strconv.Itoa(node)),
		}
		reg.Counter(telemetry.MetricRequestsTotal, "", labels...).Add(100)
		reg.Counter(telemetry.MetricDroppedTotal, "", labels...).Add(2)
		reg.Counter(telemetry.MetricViolationsTotal, "", labels...).Add(5)
		h := reg.Histogram(telemetry.MetricSojournSeconds, "", labels...)
		// Node 2 is the hotspot: a fleet p99 over the union of nodes must
		// see its tail, which per-node-tail averaging would dilute.
		for i := 0; i < 99; i++ {
			h.Observe(0.001)
		}
		if node == 2 {
			for i := 0; i < 30; i++ {
				h.Observe(0.5)
			}
		}
	}
	// A second app keeps its own bucket and forces deterministic ordering.
	reg.Counter(telemetry.MetricRequestsTotal, "",
		telemetry.L("app", "silo"), telemetry.L("node", "0")).Add(7)

	rs := RollupRegistry(reg)
	if len(rs) != 2 || rs[0].App != "silo" || rs[1].App != "xapian" {
		t.Fatalf("unexpected rollup apps: %+v", rs)
	}
	x := rs[1]
	if x.Completed != 300 || x.Dropped != 6 || x.Violations != 15 || x.Series != 3 {
		t.Fatalf("xapian counters wrong: %+v", x)
	}
	// 327 observations, 30 at 0.5s → p99 rank lands in the 0.5s cluster.
	if x.P99 < 0.4 {
		t.Fatalf("fleet p99 %.4f lost the hotspot node's tail", x.P99)
	}
	if x.P50 > 0.01 {
		t.Fatalf("fleet p50 %.4f should sit in the 1ms cluster", x.P50)
	}
}

func TestFleetHandlerServesRollup(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter(telemetry.MetricRequestsTotal, "", telemetry.L("app", "moses")).Add(3)
	rec := httptest.NewRecorder()
	FleetHandler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/fleet", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{`"apps"`, `"moses"`, `"completed": 3`} {
		if !strings.Contains(body, want) {
			t.Fatalf("response missing %s:\n%s", want, body)
		}
	}
}

func TestRuntimeSampler(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := NewRuntimeSampler(reg)
	s.Stop() // unstarted: must be a no-op
	s.Sample()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, name := range []string{
		telemetry.MetricGoGoroutines, telemetry.MetricGoHeapBytes,
		telemetry.MetricGoGCPauseP99, telemetry.MetricGoSchedLatencyP99,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("scrape missing %s", name)
		}
	}
	// A live process has goroutines and heap; the gauges must be real.
	if !strings.Contains(out, telemetry.MetricGoGoroutines+" ") {
		t.Fatal("goroutine gauge has no sample line")
	}

	started := StartRuntimeSampler(telemetry.NewRegistry(), time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	started.Stop()
	started.Stop() // idempotent
}
