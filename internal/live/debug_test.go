package live

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/workload"
)

// TestDebugEndpoints drives a short wall-clock load run and checks the
// introspection surface: /debug/trace returns the decision-attributed
// flight ring as JSON (levels within the grid, QoS′ positive, predicted
// service recorded) and /debug/pprof/ serves the profile index.
func TestDebugEndpoints(t *testing.T) {
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
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		Workers:         2,
		QoS:             app.QoS(),
		Predictor:       ScaledPredictor{cal.Model, scale},
		Backend:         backend,
		Exec:            DemoExecutor(app, backend, scale),
		MonitorInterval: 50 * time.Millisecond,
		TraceCapacity:   64, // small, to exercise the overwrite path
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
	if res.Completed < 100 {
		t.Fatalf("too few requests completed: %d", res.Completed)
	}

	ts := httptest.NewServer(srv.DebugHandler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/debug/trace status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("/debug/trace content type = %q", ct)
	}
	var snap struct {
		QoSNs      int64      `json:"qos_ns"`
		QoSPrimeNs int64      `json:"qos_prime_ns"`
		Decisions  uint64     `json:"decisions"`
		Spans      []LiveSpan `json:"spans"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/debug/trace not valid JSON: %v\n%s", err, body)
	}
	// Ring bounded at TraceCapacity even though far more requests ran.
	if len(snap.Spans) != 64 {
		t.Fatalf("flight ring has %d spans, want 64 (capacity)", len(snap.Spans))
	}
	if snap.QoSPrimeNs <= 0 || snap.QoSNs <= 0 {
		t.Fatalf("bad targets: qos=%d qos'=%d", snap.QoSNs, snap.QoSPrimeNs)
	}
	if snap.Decisions == 0 {
		t.Fatal("no decisions counted")
	}
	maxLvl := int(platform.Grid.MaxLevel())
	var lastEnd int64
	for i, sp := range snap.Spans {
		if sp.Level < 0 || sp.Level > maxLvl {
			t.Fatalf("span %d: level %d out of grid range", i, sp.Level)
		}
		if sp.PredictedS <= 0 {
			t.Fatalf("span %d: predicted service %v, want positive", i, sp.PredictedS)
		}
		if sp.ActualS < 0 || sp.SojournS <= 0 {
			t.Fatalf("span %d: bad timings actual=%v sojourn=%v", i, sp.ActualS, sp.SojournS)
		}
		if sp.EndNs < sp.StartNs || sp.StartNs < sp.RecvNs {
			t.Fatalf("span %d: timestamps out of order", i)
		}
		if sp.QoSPrimeNs <= 0 {
			t.Fatalf("span %d: QoS′ not recorded", i)
		}
		if sp.EndNs < lastEnd {
			t.Fatalf("span %d: flight ring not in completion order", i)
		}
		lastEnd = sp.EndNs
	}

	// pprof index answers.
	pr, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pbody, _ := io.ReadAll(pr.Body)
	pr.Body.Close()
	if pr.StatusCode != 200 {
		t.Fatalf("/debug/pprof/ status = %d", pr.StatusCode)
	}
	if !strings.Contains(string(pbody), "goroutine") {
		t.Fatal("/debug/pprof/ index missing goroutine profile")
	}
}

// TestTraceCapacityDisabled checks that a negative capacity disables
// recording entirely (the ring stays empty under load).
func TestTraceCapacityDisabled(t *testing.T) {
	grid := core.DefaultPlatform().Grid
	backend := NewMockBackend(grid)
	srv, err := NewServer(ServerConfig{
		Addr:          "127.0.0.1:0",
		Workers:       1,
		QoS:           workload.NewXapian().QoS(),
		Predictor:     flatPredictor{},
		Backend:       backend,
		Exec:          func(Request, cpu.Level) {},
		TraceCapacity: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.recordSpan(LiveSpan{ID: 1})
	if n := len(srv.Spans()); n != 0 {
		t.Fatalf("disabled ring recorded %d spans", n)
	}
}

// flatPredictor returns a constant service-time estimate.
type flatPredictor struct{}

func (flatPredictor) Predict(cpu.Level, []float64) float64 { return 1e-3 }
