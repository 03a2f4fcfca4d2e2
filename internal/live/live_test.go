package live

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"retail/internal/core"
	"retail/internal/cpu"
	"retail/internal/workload"
)

func TestMockBackend(t *testing.T) {
	g := cpu.DefaultGrid()
	b := NewMockBackend(g)
	if b.Level(3) != g.MaxLevel() {
		t.Fatal("unset core should report max level")
	}
	if err := b.SetLevel(3, 2); err != nil {
		t.Fatal(err)
	}
	if b.Level(3) != 2 {
		t.Fatalf("level = %d", b.Level(3))
	}
	if err := b.SetLevel(3, 99); err != nil {
		t.Fatal(err)
	}
	if b.Level(3) != g.MaxLevel() {
		t.Fatal("overflow level not clamped")
	}
	if b.Writes() != 2 {
		t.Fatalf("writes = %d", b.Writes())
	}
}

func TestSysfsBackend(t *testing.T) {
	g := cpu.DefaultGrid()
	root := t.TempDir()
	for _, c := range []int{0, 1} {
		dir := filepath.Join(root, "cpu"+string(rune('0'+c)), "cpufreq")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "scaling_setspeed"), []byte("0"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := NewSysfsBackend(g, root, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevel(0, 0); err != nil {
		t.Fatal(err)
	}
	// 1.0 GHz = 1,000,000 kHz.
	data, err := os.ReadFile(filepath.Join(root, "cpu0", "cpufreq", "scaling_setspeed"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "1000000" {
		t.Fatalf("wrote %q, want 1000000 kHz", data)
	}
	if err := b.SetLevel(1, 11); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(filepath.Join(root, "cpu1", "cpufreq", "scaling_setspeed"))
	if string(data) != "2100000" {
		t.Fatalf("wrote %q, want 2100000 kHz", data)
	}
	if err := b.SetLevel(5, 0); err == nil {
		t.Fatal("out-of-range core accepted")
	}
}

func TestSysfsBackendValidation(t *testing.T) {
	g := cpu.DefaultGrid()
	if _, err := NewSysfsBackend(g, t.TempDir(), []int{0}); err == nil {
		t.Fatal("missing cpufreq files accepted")
	}
	if _, err := NewSysfsBackend(g, t.TempDir(), nil); err == nil {
		t.Fatal("empty core list accepted")
	}
}

func TestServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

// End-to-end wall-clock run: a Xapian-like service on a mocked DVFS
// backend at a compressed time scale. The calibrated simulator predictor
// transfers to the live runtime unchanged; under light load the runtime
// should downclock (most decisions below max level) while holding the
// client-observed tail under QoS.
func TestLiveEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(2)
	cal, err := core.Calibrate(app, platform, 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	grid := platform.Grid
	backend := NewMockBackend(grid)
	// Compress time 5×: a ~2ms request sleeps ~0.4ms.
	const scale = 0.2
	srv, err := NewServer(ServerConfig{
		Addr:            "127.0.0.1:0",
		Workers:         2,
		QoS:             app.QoS(),
		Predictor:       ScaledPredictor{cal.Model, scale},
		Backend:         backend,
		Exec:            DemoExecutor(app, backend, scale),
		MonitorInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	res, err := RunLoad(LoadConfig{
		Addr: srv.Addr(), Trace: PoissonTrace(app, 120, 2*time.Second, 7, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed < res.Sent*9/10 {
		t.Fatalf("completed %d of %d", res.Completed, res.Sent)
	}
	if res.Completed < 100 {
		t.Fatalf("too few requests: %d", res.Completed)
	}
	// QoS scaled: 8ms × 0.2 = 1.6ms budget… plus real scheduler noise, so
	// assert only the broad shape: p99 below the unscaled QoS.
	if p99 := res.Quantile(0.99); p99 > time.Duration(float64(app.QoS().Latency)*1e9) {
		t.Fatalf("p99 = %v exceeds unscaled QoS", p99)
	}
	if srv.Decisions() == 0 {
		t.Fatal("no frequency decisions")
	}
	if backend.Writes() == 0 {
		t.Fatal("no DVFS writes")
	}
}

// Close must not hang even when a client keeps its connection open.
func TestCloseWithOpenConnection(t *testing.T) {
	app := workload.NewXapian()
	platform := core.DefaultPlatform().WithWorkers(1)
	cal, err := core.Calibrate(app, platform, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	backend := NewMockBackend(platform.Grid)
	srv, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Workers: 1, QoS: app.QoS(),
		Predictor: cal.Model, Backend: backend,
		Exec: func(Request, cpu.Level) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	time.Sleep(50 * time.Millisecond) // let the server register the conn
	done := make(chan struct{})
	go func() {
		srv.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with an open connection")
	}
	// Idempotent.
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
