package live

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"retail/internal/cpu"
	"retail/internal/fault"
	"retail/internal/policy"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// scriptedBackend fails the next failNext SetLevel calls with err, then
// delegates to the inner mock. It counts every attempt.
type scriptedBackend struct {
	inner    *MockBackend
	failNext int
	err      error
	calls    int
}

func (b *scriptedBackend) Grid() *cpu.Grid { return b.inner.Grid() }

func (b *scriptedBackend) SetLevel(core int, lvl cpu.Level) error {
	b.calls++
	if b.failNext != 0 {
		if b.failNext > 0 {
			b.failNext--
		}
		return b.err
	}
	return b.inner.SetLevel(core, lvl)
}

// degradeServer builds an unstarted server around the backend so tests
// can drive applyLevel directly.
func degradeServer(t *testing.T, backend Backend, dp policy.DegradeParams, faults *fault.Injector, reg *telemetry.Registry) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   2,
		QoS:       workload.QoS{Latency: 0.01, Percentile: 99},
		Predictor: constPredictor(0.001),
		Backend:   backend,
		Exec:      func(Request, cpu.Level) {},
		Faults:    faults,
		Params:    policy.Params{Degrade: dp},
		Metrics:   reg,
		AppName:   "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

type constPredictor float64

func (p constPredictor) Predict(lvl cpu.Level, f []float64) float64 { return float64(p) }

// TestApplyLevelRetryThenSuccess: transient write failures are retried
// with backoff and the requested level lands; no fallback fires.
func TestApplyLevelRetryThenSuccess(t *testing.T) {
	grid := cpu.DefaultGrid()
	sb := &scriptedBackend{inner: NewMockBackend(grid), failNext: 2, err: errors.New("transient")}
	srv := degradeServer(t, sb, policy.DegradeParams{RetryBackoff: 1e-6}, nil, nil)

	if got := srv.applyLevel(0, 3); got != 3 {
		t.Fatalf("applied %d, want 3", got)
	}
	c := srv.DegradeCounts()
	if c.DVFSWriteErrors != 2 || c.DVFSRetries != 2 || c.DVFSFallbacks != 0 {
		t.Fatalf("counts = %+v", c)
	}
	if lvl, known := srv.AppliedLevel(0); !known || lvl != 3 {
		t.Fatalf("AppliedLevel = %d,%v", lvl, known)
	}
	if sb.inner.Level(0) != 3 {
		t.Fatalf("hardware at %d", sb.inner.Level(0))
	}
	if srv.PinnedWorkers() != 0 {
		t.Fatal("worker pinned without fallback")
	}
}

// TestApplyLevelFallbackPinsMax: when the retry budget is exhausted the
// worker falls back to max frequency, the pin is visible in the telemetry
// gauge, and a later successful write clears it.
func TestApplyLevelFallbackPinsMax(t *testing.T) {
	grid := cpu.DefaultGrid()
	reg := telemetry.NewRegistry()
	// 4 attempts at the requested level (1 + 3 retries) all fail; the pin
	// write then succeeds.
	sb := &scriptedBackend{inner: NewMockBackend(grid), failNext: 4, err: errors.New("broken")}
	srv := degradeServer(t, sb, policy.DegradeParams{MaxDVFSRetries: 3, RetryBackoff: 1e-6}, nil, reg)

	if got := srv.applyLevel(1, 2); got != grid.MaxLevel() {
		t.Fatalf("applied %d, want max %d", got, grid.MaxLevel())
	}
	c := srv.DegradeCounts()
	if c.DVFSFallbacks != 1 {
		t.Fatalf("fallbacks = %d, want 1", c.DVFSFallbacks)
	}
	if c.DVFSWriteErrors != 4 || c.DVFSRetries != 3 {
		t.Fatalf("counts = %+v", c)
	}
	if srv.PinnedWorkers() != 1 {
		t.Fatalf("pinned = %d, want 1", srv.PinnedWorkers())
	}
	if lvl, known := srv.AppliedLevel(1); !known || lvl != grid.MaxLevel() {
		t.Fatalf("AppliedLevel = %d,%v", lvl, known)
	}
	g := reg.Gauge(telemetry.MetricWorkersPinned, "", telemetry.L("app", "t"))
	if g.Value() != 1 {
		t.Fatalf("pinned gauge = %v, want 1", g.Value())
	}
	// Recovery: the next successful write clears the pin and the gauge.
	if got := srv.applyLevel(1, 5); got != 5 {
		t.Fatalf("recovery applied %d, want 5", got)
	}
	if srv.PinnedWorkers() != 0 || g.Value() != 0 {
		t.Fatalf("pin not cleared: workers=%d gauge=%v", srv.PinnedWorkers(), g.Value())
	}
}

// TestApplyLevelTotalFailure: when even the pin write fails the runtime
// keeps the last known level for pacing and marks the state unknown.
func TestApplyLevelTotalFailure(t *testing.T) {
	grid := cpu.DefaultGrid()
	sb := &scriptedBackend{inner: NewMockBackend(grid), failNext: -1, err: errors.New("dead")}
	srv := degradeServer(t, sb, policy.DegradeParams{MaxDVFSRetries: 1, RetryBackoff: 1e-6}, nil, nil)

	// Never successfully written: cores boot at max, so pace at max.
	if got := srv.applyLevel(0, 2); got != grid.MaxLevel() {
		t.Fatalf("applied %d, want max", got)
	}
	if _, known := srv.AppliedLevel(0); known {
		t.Fatal("state should be unknown after total failure")
	}
	if srv.PinnedWorkers() != 1 {
		t.Fatalf("pinned = %d, want 1", srv.PinnedWorkers())
	}
	// Attempt ceiling: (1+1) at the requested level + (1+1) at max.
	if sb.calls != 4 {
		t.Fatalf("backend calls = %d, want 4", sb.calls)
	}
}

// TestApplyLevelRetryCeilings pins the attempt budget arithmetic,
// including the negative-disables-retries case.
func TestApplyLevelRetryCeilings(t *testing.T) {
	for _, tc := range []struct {
		retries   int
		wantCalls int // attempts at requested level + attempts at max
	}{
		{0, 8},  // default 3 retries → 4 + 4
		{3, 8},  // explicit 3 → 4 + 4
		{1, 4},  // 2 + 2
		{-1, 2}, // retries disabled → 1 + 1
	} {
		sb := &scriptedBackend{inner: NewMockBackend(cpu.DefaultGrid()), failNext: -1, err: errors.New("x")}
		srv := degradeServer(t, sb, policy.DegradeParams{MaxDVFSRetries: tc.retries, RetryBackoff: 1e-6}, nil, nil)
		srv.applyLevel(0, 1)
		if sb.calls != tc.wantCalls {
			t.Errorf("MaxDVFSRetries=%d: %d backend calls, want %d", tc.retries, sb.calls, tc.wantCalls)
		}
	}
}

// TestFaultyBackendPartialWrite: the injected partial write drives the
// hardware to a different level than requested and surfaces the sentinel
// error — the exact out-of-sync state the reconcile machinery handles.
func TestFaultyBackendPartialWrite(t *testing.T) {
	grid := cpu.DefaultGrid()
	mock := NewMockBackend(grid)
	inj := fault.New(1, &fault.Plan{Sites: []fault.SitePlan{{
		Site: fault.SiteDVFSWrite, Kinds: []fault.Kind{fault.KindPartialWrite}, Every: 1,
	}}})
	fb := NewFaultyBackend(mock, inj)
	err := fb.SetLevel(0, grid.MaxLevel())
	if !errors.Is(err, fault.ErrInjectedShortWrite) {
		t.Fatalf("err = %v, want ErrInjectedShortWrite", err)
	}
	if mock.Level(0) != 0 {
		t.Fatalf("hardware at %d, want grid minimum after partial write", mock.Level(0))
	}
}

// TestFaultyBackendPassthrough: with no DVFS plan the wrapper is
// transparent and injects nothing.
func TestFaultyBackendPassthrough(t *testing.T) {
	grid := cpu.DefaultGrid()
	mock := NewMockBackend(grid)
	fb := NewFaultyBackend(mock, nil)
	if err := fb.SetLevel(2, 4); err != nil {
		t.Fatal(err)
	}
	if mock.Level(2) != 4 {
		t.Fatalf("level = %d", mock.Level(2))
	}
}

// sysfsRoot builds a fake cpufreq tree for one core.
func sysfsRoot(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "cpu0", "cpufreq")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scaling_setspeed"), []byte("0"), 0o644); err != nil {
		t.Fatal(err)
	}
	return root
}

// TestSysfsBackendReconcile: after a failed write the backend re-reads
// the frequency files and snaps the observed kHz back onto the grid, so
// Applied never reports a level the hardware does not hold.
func TestSysfsBackendReconcile(t *testing.T) {
	grid := cpu.DefaultGrid()
	root := sysfsRoot(t)
	b, err := NewSysfsBackend(grid, root, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevel(0, 2); err != nil {
		t.Fatal(err)
	}
	if lvl, known := b.Applied(0); !known || lvl != 2 {
		t.Fatalf("Applied = %d,%v after clean write", lvl, known)
	}

	// Break the write path: replace scaling_setspeed with a directory
	// (fails OpenFile even for root, unlike chmod) and publish the
	// hardware's actual frequency via scaling_cur_freq.
	dir := filepath.Join(root, "cpu0", "cpufreq")
	setspeed := filepath.Join(dir, "scaling_setspeed")
	if err := os.Remove(setspeed); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(setspeed, 0o755); err != nil {
		t.Fatal(err)
	}
	hwLvl := cpu.Level(5)
	khz := fmt.Sprintf("%d", int(grid.Freq(hwLvl)*1e6))
	if err := os.WriteFile(filepath.Join(dir, "scaling_cur_freq"), []byte(khz+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevel(0, 9); err == nil {
		t.Fatal("write to a directory should fail")
	}
	if lvl, known := b.Applied(0); !known || lvl != hwLvl {
		t.Fatalf("Applied = %d,%v, want reconciled %d from scaling_cur_freq", lvl, known, hwLvl)
	}

	// No readable frequency source at all → the state goes unknown.
	if err := os.Remove(filepath.Join(dir, "scaling_cur_freq")); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevel(0, 9); err == nil {
		t.Fatal("write should still fail")
	}
	if _, known := b.Applied(0); known {
		t.Fatal("Applied should be unknown with no readable frequency file")
	}
}

// TestSysfsBackendReconcileGarbage: unparseable frequency readings mark
// the core unknown instead of inventing a level.
func TestSysfsBackendReconcileGarbage(t *testing.T) {
	grid := cpu.DefaultGrid()
	root := sysfsRoot(t)
	b, err := NewSysfsBackend(grid, root, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(root, "cpu0", "cpufreq")
	setspeed := filepath.Join(dir, "scaling_setspeed")
	if err := os.Remove(setspeed); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(setspeed, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "scaling_cur_freq"), []byte("<notafreq>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevel(0, 3); err == nil {
		t.Fatal("write to a directory should fail")
	}
	if _, known := b.Applied(0); known {
		t.Fatal("garbage reading must not produce a known level")
	}
}

// shedServer builds a started server whose every arrival sheds: the
// predictor claims 1 s of work against a 10 ms QoS.
func shedServer(t *testing.T, reg *telemetry.Registry) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   1,
		QoS:       workload.QoS{Latency: 0.01, Percentile: 99},
		Predictor: constPredictor(1.0),
		Backend:   NewMockBackend(cpu.DefaultGrid()),
		Exec:      func(Request, cpu.Level) {},
		Params:    policy.Params{Degrade: policy.DegradeParams{ShedFactor: 1.0}},
		Metrics:   reg,
		AppName:   "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestShedAndClientRetryBudget: a hopeless request is shed on arrival;
// the client retries with backoff up to its budget and then counts the
// request dropped — and the shed counter lands in telemetry.
func TestShedAndClientRetryBudget(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv := shedServer(t, reg)
	res, err := RunLoad(LoadConfig{
		Addr:  srv.Addr(),
		Trace: PoissonTrace(workload.NewXapian(), 200, 300*time.Millisecond, 3, nil),
		Conns: 2, MaxRetries: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("client sent nothing")
	}
	if res.Completed != 0 {
		t.Fatalf("completed %d, want 0 (everything sheds)", res.Completed)
	}
	if res.Dropped != res.Sent || res.Unanswered != 0 {
		t.Fatalf("dropped %d of %d sent, %d unanswered", res.Dropped, res.Sent, res.Unanswered)
	}
	if res.Retries != 2*res.Sent {
		t.Fatalf("retries %d, want 2×sent=%d", res.Retries, 2*res.Sent)
	}
	c := srv.DegradeCounts()
	if c.Shed == 0 {
		t.Fatal("no sheds counted")
	}
	if want := uint64(3 * res.Sent); c.Shed != want {
		t.Fatalf("shed %d, want %d (every attempt sheds)", c.Shed, want)
	}
	shedCtr := reg.Counter(telemetry.MetricDroppedTotal, "", telemetry.L("app", "t"))
	if shedCtr.Value() != c.Shed {
		t.Fatalf("telemetry shed=%d, counts=%d", shedCtr.Value(), c.Shed)
	}
}

// TestClientRetriesDisabled: MaxRetries 0 turns retries off — every
// shed is final.
func TestClientRetriesDisabled(t *testing.T) {
	srv := shedServer(t, nil)
	res, err := RunLoad(LoadConfig{
		Addr:  srv.Addr(),
		Trace: PoissonTrace(workload.NewXapian(), 200, 200*time.Millisecond, 3, nil),
		Conns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatal("client sent nothing")
	}
	if res.Retries != 0 {
		t.Fatalf("retries %d with retries disabled", res.Retries)
	}
	if res.Dropped != res.Sent {
		t.Fatalf("dropped %d of %d", res.Dropped, res.Sent)
	}
	if c := srv.DegradeCounts(); c.Shed != uint64(res.Sent) {
		t.Fatalf("shed %d, want one per sent request (%d)", c.Shed, res.Sent)
	}
}

// TestDeadlineDrop: with a slow executor and a single worker, queued
// requests blow the deadline budget while waiting and are dropped at
// dequeue without executing.
func TestDeadlineDrop(t *testing.T) {
	reg := telemetry.NewRegistry()
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   1,
		QoS:       workload.QoS{Latency: 0.005, Percentile: 99},
		Predictor: constPredictor(0.001),
		Backend:   NewMockBackend(cpu.DefaultGrid()),
		Exec: func(Request, cpu.Level) {
			time.Sleep(20 * time.Millisecond)
		},
		Params:  policy.Params{Degrade: policy.DegradeParams{DeadlineFactor: 1}},
		Metrics: reg,
		AppName: "t",
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()

	res, err := RunLoad(LoadConfig{
		Addr:  srv.Addr(),
		Trace: PoissonTrace(workload.NewXapian(), 300, 300*time.Millisecond, 5, nil),
		Conns: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := srv.DegradeCounts()
	if c.DeadlineDrops == 0 {
		t.Fatal("no deadline drops under a 20ms executor and 5ms QoS")
	}
	if res.Completed == 0 {
		t.Fatal("head-of-queue requests should still complete")
	}
	ctr := reg.Counter(telemetry.MetricDeadlineTimeouts, "", telemetry.L("app", "t"))
	if ctr.Value() != c.DeadlineDrops {
		t.Fatalf("telemetry deadline drops=%d, counts=%d", ctr.Value(), c.DeadlineDrops)
	}
}

// TestServerExecFaultInjection: SiteExec spikes extend measured service
// time; with injection disabled behavior is untouched.
func TestServerExecFaultInjection(t *testing.T) {
	inj := fault.New(1, &fault.Plan{Sites: []fault.SitePlan{{
		Site: fault.SiteExec, Kinds: []fault.Kind{fault.KindLatencySpike},
		Every: 1, Magnitude: 5e-3,
	}}})
	srv, err := NewServer(ServerConfig{
		Addr:      "127.0.0.1:0",
		Workers:   1,
		QoS:       workload.QoS{Latency: 0.1, Percentile: 99},
		Predictor: constPredictor(0.0001),
		Backend:   NewMockBackend(cpu.DefaultGrid()),
		Exec:      func(Request, cpu.Level) {},
		Faults:    inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Close()
	res, err := RunLoad(LoadConfig{
		Addr:  srv.Addr(),
		Trace: PoissonTrace(workload.NewXapian(), 100, 200*time.Millisecond, 9, nil),
		Conns: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed")
	}
	if inj.Fired(fault.SiteExec) == 0 {
		t.Fatal("no exec faults fired with Every=1")
	}
	// Every execution took the 5ms spike, so even p50 must exceed it.
	if p50 := res.Quantile(0.50); p50 < 5*time.Millisecond {
		t.Fatalf("p50 = %v, want ≥ 5ms spike", p50)
	}
}

// Applied returns the last reconciled hardware level for the core and
// whether it is known (false before the first successful write or after
// an unreconcilable failure).
func (b *SysfsBackend) Applied(core int) (cpu.Level, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	lvl, ok := b.known[core]
	return lvl, ok
}
