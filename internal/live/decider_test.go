package live

import (
	"testing"
	"time"

	"retail/internal/cpu"
	"retail/internal/workload"
)

// deciderServer builds an unstarted server running the named policy, for
// tests that poke the decision path directly.
func deciderServer(t *testing.T, pol string, profile []float64) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{
		Addr:         "127.0.0.1:0",
		Workers:      2,
		QoS:          workload.QoS{Latency: 0.01, Percentile: 99},
		Predictor:    constPredictor(0.001),
		Backend:      NewMockBackend(cpu.DefaultGrid()),
		Exec:         func(Request, cpu.Level) {},
		Policy:       pol,
		ProfileAtMax: profile,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// flatProfile is an offline service-time distribution for the profile-
// driven baselines (Rubik's tail, EETL's threshold).
func flatProfile(n int, base, step float64) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = base + float64(i)*step
	}
	return p
}

// TestNewDeciderSelection: every policy name resolves to the matching
// decider, the profile-driven baselines demand a profile, and unknown
// names are rejected at construction — not at the first request.
func TestNewDeciderSelection(t *testing.T) {
	profile := flatProfile(100, 0.5e-3, 1e-5)
	for _, pol := range []string{"", "retail", "rubik", "gemini", "eetl"} {
		srv := deciderServer(t, pol, profile)
		want := pol
		if want == "" {
			want = "retail"
		}
		if got := srv.Policy(); got != want {
			t.Fatalf("Policy() = %q for cfg %q", got, pol)
		}
	}
	for _, pol := range []string{"rubik", "eetl"} {
		if _, err := NewServer(ServerConfig{
			Addr: "127.0.0.1:0", Workers: 1,
			QoS:       workload.QoS{Latency: 0.01, Percentile: 99},
			Predictor: constPredictor(0.001),
			Backend:   NewMockBackend(cpu.DefaultGrid()),
			Exec:      func(Request, cpu.Level) {},
			Policy:    pol,
		}); err == nil {
			t.Fatalf("policy %q accepted without ProfileAtMax", pol)
		}
	}
	if _, err := NewServer(ServerConfig{
		Addr: "127.0.0.1:0", Workers: 1,
		QoS:       workload.QoS{Latency: 0.01, Percentile: 99},
		Predictor: constPredictor(0.001),
		Backend:   NewMockBackend(cpu.DefaultGrid()),
		Exec:      func(Request, cpu.Level) {},
		Policy:    "bogus",
	}); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// TestLiveDecideZeroAlloc: the wall-clock decision path — pipeline view
// over the live queue, Algorithm 1 in the shared core, QoS′ read — must
// not allocate, mirroring the simulator adapter's zero-alloc guarantee
// (TestRetailDecideZeroAlloc in internal/manager).
func TestLiveDecideZeroAlloc(t *testing.T) {
	srv := deciderServer(t, "retail", nil)
	now := time.Now().UnixNano()
	head := &queuedReq{req: Request{ID: 1, GenNs: now, Features: []float64{1, 2, 3}}}
	for i := uint64(2); i <= 4; i++ {
		srv.queues[0] = append(srv.queues[0], &queuedReq{
			req: Request{ID: i, GenNs: now, Features: []float64{1, 2, 3}},
		})
	}
	allocs := testing.AllocsPerRun(200, func() {
		srv.decide(0, head)
	})
	if allocs != 0 {
		t.Fatalf("live decide allocates %.1f/op, want 0", allocs)
	}
}

// TestLiveDecideZeroAllocBaselines: the baseline deciders share the
// guarantee — their pipeline wrappers cache per-level state in place.
func TestLiveDecideZeroAllocBaselines(t *testing.T) {
	profile := flatProfile(100, 0.5e-3, 1e-5)
	for _, pol := range []string{"rubik", "gemini", "eetl"} {
		srv := deciderServer(t, pol, profile)
		now := time.Now().UnixNano()
		head := &queuedReq{req: Request{ID: 1, GenNs: now, Features: []float64{1, 2, 3}}}
		allocs := testing.AllocsPerRun(200, func() {
			srv.decide(0, head)
		})
		if allocs != 0 {
			t.Fatalf("%s: live decide allocates %.1f/op, want 0", pol, allocs)
		}
	}
}

// TestLiveMonitorRecoversAfterBurst: the wall-clock twin of the
// simulator regression (TestReTailMonitorRecoversAfterBurst in
// internal/manager). Historically the live monitor age-pruned but the
// sim's did not; with the shared policy.Monitor both do, and this pins
// the live adapter's wiring of Observe/Tick through the decider. Times
// are injected through the decider interface, so no wall sleeping.
func TestLiveMonitorRecoversAfterBurst(t *testing.T) {
	srv := deciderServer(t, "retail", nil)
	qos := 0.01
	srv.mu.Lock()
	// Burst: 100 completions at 3× target inside 0.2 s.
	for i := 0; i < 100; i++ {
		at := float64(i) * 2e-3
		srv.dec.Observe(at, 3*qos)
	}
	for i := 0; i <= 5; i++ {
		srv.dec.Tick(float64(i) * 0.1)
	}
	hurt := srv.dec.QoSPrime()
	if hurt >= qos {
		srv.mu.Unlock()
		t.Fatalf("setup: QoS′ = %v not cut by the burst", hurt)
	}
	// Healthy traffic at 0.3× target; the burst ages past the monitor
	// span and must be pruned so QoS′ can relax again.
	at := 0.6
	for i := 0; i < 4000; i++ {
		at += 5e-3
		srv.dec.Observe(at, 0.3*qos)
		if i%20 == 0 {
			srv.dec.Tick(at)
		}
	}
	recovered := srv.dec.QoSPrime()
	srv.mu.Unlock()
	if recovered <= hurt {
		t.Fatalf("QoS′ stuck at %v after the burst drained (want recovery above %v)",
			recovered, hurt)
	}
}

// TestLivePoliciesEndToEnd: every baseline serves real traffic over the
// wire — the acceptance check that `retail-live -policy rubik|gemini|eetl`
// is not just constructible but functional.
func TestLivePoliciesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock test")
	}
	profile := flatProfile(200, 0.2e-3, 1e-6)
	for _, pol := range []string{"rubik", "gemini", "eetl"} {
		t.Run(pol, func(t *testing.T) {
			backend := NewMockBackend(cpu.DefaultGrid())
			srv, err := NewServer(ServerConfig{
				Addr:         "127.0.0.1:0",
				Workers:      2,
				QoS:          workload.QoS{Latency: 0.02, Percentile: 99},
				Predictor:    constPredictor(0.0002),
				Backend:      backend,
				Exec:         func(Request, cpu.Level) { time.Sleep(200 * time.Microsecond) },
				Policy:       pol,
				ProfileAtMax: profile,
			})
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			defer srv.Close()
			res, err := RunLoad(LoadConfig{
				Addr:  srv.Addr(),
				Trace: PoissonTrace(workload.NewXapian(), 150, 400*time.Millisecond, 11, nil),
				Conns: 4,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Completed < res.Sent*9/10 || res.Completed == 0 {
				t.Fatalf("%s: completed %d of %d", pol, res.Completed, res.Sent)
			}
			if srv.Decisions() == 0 {
				t.Fatalf("%s: no frequency decisions", pol)
			}
			if backend.Writes() == 0 {
				t.Fatalf("%s: no DVFS writes", pol)
			}
			if got := srv.QoSPrime(); got != 20*time.Millisecond {
				t.Fatalf("%s: QoS′ = %v, want pinned to QoS (baselines have no monitor)", pol, got)
			}
		})
	}
}
