package live

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"retail/internal/core"
	"retail/internal/policy"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// TestLiveMetricsExposition is the live-side acceptance check: a
// wall-clock load run must leave the registry with non-zero
// request-latency histogram buckets, frequency-residency counters and a
// QoS′ gauge, all scrapeable in Prometheus text format, with /healthz
// answering 200.
func TestLiveMetricsExposition(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(2)
	cal, err := core.Calibrate(app, platform, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewMockBackend(platform.Grid)
	const scale = 0.2
	reg := telemetry.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   2,
		QoS:       app.QoS(),
		Predictor: ScaledPredictor{cal.Model, scale},
		Backend:   backend,
		Exec:      DemoExecutor(app, backend, scale),
		Params:    policy.Params{Monitor: policy.MonitorParams{Interval: 0.05}},
		Metrics:   reg,
		AppName:   app.Name(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	res, err := RunLoad(LoadConfig{
		Addr: srv.Addr(), Trace: PoissonTrace(app, 150, 1500*time.Millisecond, 7, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < 50 {
		t.Fatalf("too few requests completed: %d", res.Completed)
	}

	// Scrape over HTTP like Prometheus would.
	ts := httptest.NewServer(reg.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	bodyBytes, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	body := string(bodyBytes)

	// Non-zero sojourn histogram buckets.
	bucketRe := regexp.MustCompile(telemetry.MetricSojournSeconds + `_bucket\{[^}]*le="[^+][^"]*"\} (\d+)`)
	matches := bucketRe.FindAllStringSubmatch(body, -1)
	if len(matches) == 0 {
		t.Fatalf("no finite sojourn buckets in exposition:\n%s", body)
	}
	var lastCum uint64
	for _, m := range matches {
		n, _ := strconv.ParseUint(m[1], 10, 64)
		if n < lastCum {
			t.Fatalf("bucket counts not cumulative: %d after %d", n, lastCum)
		}
		lastCum = n
	}
	if lastCum == 0 {
		t.Fatal("all sojourn buckets zero")
	}
	if int(lastCum) > res.Completed+res.Sent {
		t.Fatalf("bucket count %d exceeds sent %d", lastCum, res.Sent)
	}

	// Frequency-residency counters must sum to the completion counter.
	resRe := regexp.MustCompile(telemetry.MetricFreqResidency + `\{[^}]*\} (\d+)`)
	var residency uint64
	for _, m := range resRe.FindAllStringSubmatch(body, -1) {
		n, _ := strconv.ParseUint(m[1], 10, 64)
		residency += n
	}
	completedRe := regexp.MustCompile(telemetry.MetricRequestsTotal + `\{[^}]*\} (\d+)`)
	cm := completedRe.FindStringSubmatch(body)
	if cm == nil {
		t.Fatal("requests_total missing from exposition")
	}
	completed, _ := strconv.ParseUint(cm[1], 10, 64)
	if completed == 0 || residency != completed {
		t.Fatalf("residency sum %d != completions %d", residency, completed)
	}

	// QoS′ gauge present and positive.
	qpRe := regexp.MustCompile(telemetry.MetricQoSPrime + `\{[^}]*\} ([0-9.eE+-]+)`)
	qm := qpRe.FindStringSubmatch(body)
	if qm == nil {
		t.Fatal("qos' gauge missing from exposition")
	}
	if v, _ := strconv.ParseFloat(qm[1], 64); v <= 0 {
		t.Fatalf("qos' gauge = %v, want positive", qm[1])
	}

	// Decisions recorded.
	if !strings.Contains(body, telemetry.MetricDecisionsTotal) {
		t.Fatal("decision counter missing")
	}

	// /healthz liveness.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != 200 {
		t.Fatalf("/healthz = %d, want 200", hr.StatusCode)
	}
}
