package live

import (
	"runtime"
	"testing"
	"time"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/workload"
)

// saturationServer is a live server with the application's work taken
// out, so that the runtime itself is what a test exercises: no-op
// executor, constant predictor, QoS loose enough that nothing is shed or
// deadline-dropped.
func saturationServer(t *testing.T, workers int, params policy.Params) *Server {
	t.Helper()
	grid := cpu.DefaultGrid()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   workers,
		QoS:       workload.QoS{Latency: 10, Percentile: 99},
		Predictor: constPredictor(1e-6),
		Backend:   NewMockBackend(grid),
		Exec:      func(Request, cpu.Level) {},
		Params:    params,
		AppName:   "loadgen-smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestOpenLoopSaturation is the loopback smoke for the open-loop
// generator: offered load north of 100k RPS must actually leave the
// client (SentRPS is generator-side, so a slow server cannot fake this),
// and every request must be answered before the drain expires.
func TestOpenLoopSaturation(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation smoke needs wall-clock seconds")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the path 5-10x; the smoke measures throughput")
	}
	// The one place the HeadOnly ablation is still used. Full-queue
	// Algorithm 1 walks the whole queue per decision, so an open loop
	// offered this close to capacity is metastable: a stall of some tens
	// of milliseconds leaves a backlog whose decisions cost more than the
	// gap between arrivals, and it never drains. With the real policy on
	// a 2-vCPU host this smoke passed 15 runs in 17 alone, and 3 in 5
	// next to the other packages' tests, as `go test ./...` runs it (2
	// in 5 with the previous transport); the rest ended with most
	// requests unanswered. Until the decide path stops being O(queue)
	// (ROADMAP item 3), what this test loads to saturation is the
	// transport.
	srv := saturationServer(t, runtime.NumCPU(), policy.Params{Alg1: policy.Alg1Params{HeadOnly: true}})

	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr(),
		App:      workload.NewMasstree(),
		RPS:      140000,
		Conns:    12,
		Duration: 2 * time.Second,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", res.Report())

	if res.SentRPS < 100000 {
		t.Errorf("generator sustained %.0f RPS, want >= 100000", res.SentRPS)
	}
	if res.Unanswered != 0 {
		t.Errorf("%d of %d requests unanswered after drain", res.Unanswered, res.Sent)
	}
	if res.Dropped != 0 {
		t.Errorf("%d drops with admission control off", res.Dropped)
	}
	if res.Completed == 0 || res.Latency.Count() != int64(res.Completed) {
		t.Errorf("latency count %d != completed %d", res.Latency.Count(), res.Completed)
	}
	if res.Latency.Quantile(0.5) <= 0 {
		t.Error("p50 latency is zero — GenNs echo is broken")
	}
}

// TestOpenLoopAccounting runs a small exact-count pass: modest rate, one
// connection, and checks the ledger adds up and the report renders.
func TestOpenLoopAccounting(t *testing.T) {
	srv := saturationServer(t, 2, policy.Params{})

	res, err := RunLoad(LoadConfig{
		Addr:     srv.Addr(),
		App:      workload.NewXapian(),
		RPS:      400,
		Conns:    1,
		Duration: 500 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if res.Completed != res.Sent {
		t.Errorf("completed %d != sent %d (dropped %d, unanswered %d)",
			res.Completed, res.Sent, res.Dropped, res.Unanswered)
	}
	if got := res.Report(); len(got) == 0 {
		t.Error("empty report")
	}
}

// TestRunLoadValidation: config errors surface before any dial.
func TestRunLoadValidation(t *testing.T) {
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", RPS: 100, Duration: time.Second}); err == nil {
		t.Error("nil App accepted")
	}
	if _, err := RunLoad(LoadConfig{Addr: "127.0.0.1:1", App: workload.NewXapian(), Duration: time.Second}); err == nil {
		t.Error("zero RPS accepted")
	}
}
