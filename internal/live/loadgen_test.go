package live

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"retail/internal/cpu"
	"retail/internal/fault"
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
		Addr:  srv.Addr(),
		Trace: PoissonTrace(workload.NewMasstree(), 140000, 2*time.Second, 1, nil),
		Conns: 12,
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
		t.Error("p50 latency is zero — the scheduled-time clock is broken")
	}
}

// TestOpenLoopAccounting runs small exact-count passes — a Poisson
// stream on one connection and a cohort spec's classed stream on three —
// and checks the ledger adds up, per class too, and the report renders.
func TestOpenLoopAccounting(t *testing.T) {
	srv := saturationServer(t, 2, policy.Params{})
	spec := workload.BuiltinSpec("slo-mix").ScaledTo(400)
	for name, cfg := range map[string]LoadConfig{
		"poisson": {Trace: PoissonTrace(workload.NewXapian(), 400, 500*time.Millisecond, 7, nil), Conns: 1},
		"spec":    {Trace: workload.RecordTrace(spec, 7, 0.5), Conns: 3},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.Addr = srv.Addr()
			res, err := RunLoad(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Sent != len(cfg.Trace.Records) {
				t.Fatalf("sent %d of %d records", res.Sent, len(cfg.Trace.Records))
			}
			if res.Completed != res.Sent {
				t.Errorf("completed %d != sent %d (dropped %d, unanswered %d)",
					res.Completed, res.Sent, res.Dropped, res.Unanswered)
			}
			if len(res.Classes) != len(cfg.Trace.Header.Classes) {
				t.Fatalf("%d class blocks for a %d-class trace", len(res.Classes), len(cfg.Trace.Header.Classes))
			}
			perClass := 0
			for _, c := range res.Classes {
				perClass += c.Completed
				if int64(c.Completed) != c.Latency.Count() {
					t.Errorf("class %s: %d completed, %d latency samples", c.Class, c.Completed, c.Latency.Count())
				}
			}
			if len(res.Classes) > 0 && perClass != res.Completed {
				t.Errorf("classes account for %d of %d completed", perClass, res.Completed)
			}
			if got := res.Report(); len(got) == 0 {
				t.Error("empty report")
			}
		})
	}
}

// TestRunLoadValidation: config errors surface before any dial.
func TestRunLoadValidation(t *testing.T) {
	tr := PoissonTrace(workload.NewXapian(), 100, time.Second, 1, nil)
	for name, cfg := range map[string]LoadConfig{
		"nil trace":        {},
		"empty trace":      {Trace: workload.NewTrace(nil, 1)},
		"negative retries": {Trace: tr, MaxRetries: -1},
	} {
		cfg.Addr = "127.0.0.1:1"
		if _, err := RunLoad(cfg); err == nil || strings.Contains(err.Error(), "dial") {
			t.Errorf("%s: err = %v, want a config error before any dial", name, err)
		}
	}
}

// TestRunLoadServerGone: a server that goes away mid-run must not hang
// the client. RunLoad returns within window + drain + 1 s, every record
// ends completed, dropped or unanswered, and nothing it started — retry
// queues included — outlives it.
func TestRunLoadServerGone(t *testing.T) {
	const window, drain = time.Second, 500 * time.Millisecond
	before := runtime.NumGoroutine()
	srv := shedServer(t, nil) // every attempt sheds, so retries are queued when it goes
	tr := PoissonTrace(workload.NewXapian(), 5000, window, 1, nil)
	time.AfterFunc(100*time.Millisecond, func() { srv.Close() })

	begin := time.Now()
	res, err := RunLoad(LoadConfig{
		Addr: srv.Addr(), Trace: tr, DrainTimeout: drain,
		MaxRetries: 3, RetryBackoff: 20 * time.Millisecond,
	})
	if took := time.Since(begin); took > window+drain+time.Second {
		t.Fatalf("RunLoad took %v after the server went away", took)
	}
	if err == nil {
		if got := res.Completed + res.Dropped + res.Unanswered; got != len(tr.Records) {
			t.Errorf("%d completed + %d dropped + %d unanswered != %d records",
				res.Completed, res.Dropped, res.Unanswered, len(tr.Records))
		}
		if res.Unanswered == 0 {
			t.Error("nothing unanswered though the server closed 100 ms into a 1 s window")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d running, started with %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPoissonTraceBurst: the pre-drawn schedule is a pure function of its
// arguments, and a burst multiplies the arrival rate inside its window.
func TestPoissonTraceBurst(t *testing.T) {
	app := workload.NewXapian()
	burst := &fault.Burst{From: 0.4, Until: 0.6, Factor: 4}
	a := PoissonTrace(app, 2000, time.Second, 3, &fault.Plan{Burst: burst})
	b := PoissonTrace(app, 2000, time.Second, 3, &fault.Plan{Burst: burst})
	ha, _ := a.SHA()
	hb, _ := b.SHA()
	if ha != hb {
		t.Fatal("same arguments drew different schedules")
	}
	in, out := 0, 0
	for _, r := range a.Records {
		if at := float64(r.Arrival); at >= burst.From && at < burst.Until {
			in++
		} else {
			out++
		}
	}
	// 0.2 s at 8000 RPS against 0.8 s at 2000 RPS: about 1600 each.
	if in < 1200 || in > 2000 || out < 1200 || out > 2000 {
		t.Fatalf("%d arrivals inside the burst, %d outside; want about 1600 each", in, out)
	}
	if last := float64(a.Records[len(a.Records)-1].Arrival); last > 1 {
		t.Fatalf("arrival at %.3f s past the 1 s window", last)
	}
}
