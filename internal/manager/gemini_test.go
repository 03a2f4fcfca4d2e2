package manager

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sync"
	"testing"

	"retail/internal/cpu"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// xapianNN trains a small request-feature network on Xapian, as
// core.Calibration.GeminiModel does with the published shape.
func xapianNN(tb testing.TB) *predict.NNModel {
	tb.Helper()
	app, g := workload.NewXapian(), cpu.DefaultGrid()
	rng := rand.New(rand.NewSource(3))
	set := predict.NewTrainingSet(400)
	for i := 0; i < 400; i++ {
		r := app.Generate(rng)
		set.Add(predict.Sample{Level: g.MaxLevel(), Features: r.Features, Service: float64(r.ServiceBase)})
	}
	model, err := predict.FitNN(set, g, nn.TunedConfig(1, 2, 16, 20, 32), g.MaxLevel(), []int{0})
	if err != nil {
		tb.Fatal(err)
	}
	return model
}

type geminiOutcome struct {
	m                  *Gemini
	completed, dropped int
	digest             string
}

// runGeminiNode drives one 2-worker Xapian node under Gemini at an
// Poisson rate near saturation with pooled requests for 1.5 virtual seconds,
// then lets it drain. The digest covers every request's fate in order.
func runGeminiNode(model *predict.NNModel, seed int64) geminiOutcome {
	app, g := workload.NewXapian(), cpu.DefaultGrid()
	e := sim.NewEngine()
	srv := server.New(server.Config{
		App: app, Workers: 2, Grid: g,
		Power: cpu.DefaultPowerModel(g),
		Trans: cpu.TransitionModel{Min: 1e-6, Mean: 2e-6, Max: 5e-6},
		Seed:  seed,
	})
	m := NewGemini(app.QoS(), app.FeatureSpecs(),
		GeminiConfig{Policy: simPolicy("gemini", app.QoS(), g, nil).(*policy.Gemini), Model: model})
	m.Attach(e, srv)
	out := geminiOutcome{m: m}
	h := sha256.New()
	retire := func(r *workload.Request) {
		var b [25]byte
		binary.LittleEndian.PutUint64(b[0:], r.ID)
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(float64(r.End)))
		binary.LittleEndian.PutUint64(b[16:], uint64(r.ServedLevel))
		if r.Dropped {
			b[24] = 1
		}
		h.Write(b[:])
	}
	pool := &workload.RequestPool{}
	srv.CompletedSink = func(_ *sim.Engine, r *workload.Request) { out.completed++; retire(r); pool.Put(r) }
	srv.DroppedSink = func(_ *sim.Engine, r *workload.Request) { out.dropped++; retire(r); pool.Put(r) }
	gen := workload.NewGenerator(app, 0.95*2/workload.MeanServiceAtMax(app), seed, srv.Submit)
	gen.Pool = pool
	gen.Start(e)
	e.Run(1.5)
	gen.Stop()
	e.Run(3) // drain
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(srv.Socket.EnergyJoules(3)))
	h.Write(b[:])
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out
}

// The prediction slot may only save the host work: every count the modeled
// manager produces and every request's fate equal the values a cache-free
// manager gives (pinned before Gemini cached anything), and a request node
// recycled through the pool — after completions and drops — predicts from
// its own features, not its previous occupant's.
func TestGeminiMemoKeepsResultsAndDrains(t *testing.T) {
	model := xapianNN(t)
	out := runGeminiNode(model, 7)
	const (
		wantInferences = 15866
		wantBoosts     = 338
		wantCompleted  = 1366
		wantDropped    = 293
		wantDigest     = "818ee3c3de5a273a5ee6ad7233f4e429d640778db435aaf2b4b9bccc72d5e158"
	)
	if got := out.m.Inferences(); got != wantInferences {
		t.Errorf("inferences = %d, want %d", got, wantInferences)
	}
	if out.m.Boosts() != wantBoosts || out.completed != wantCompleted || out.dropped != wantDropped {
		t.Errorf("boosts/completed/dropped = %d/%d/%d, want %d/%d/%d",
			out.m.Boosts(), out.completed, out.dropped, wantBoosts, wantCompleted, wantDropped)
	}
	if out.digest != wantDigest {
		t.Errorf("digest = %s, want %s", out.digest, wantDigest)
	}

	// Recycle one request node until its occupant's prediction differs
	// from the first one's: each occupant must predict from its own
	// features.
	app, lvl := workload.NewXapian(), cpu.DefaultGrid().MaxLevel()
	rng := rand.New(rand.NewSource(5))
	pool := &workload.RequestPool{}
	r := pool.Get()
	r.Features = append(r.Features, app.Generate(rng).Features...)
	first := out.m.predictAt(lvl, r)
	for tries := 0; ; tries++ {
		pool.Put(r)
		if next := pool.Get(); next != r {
			t.Fatal("the pool did not recycle the request node")
		}
		r.Features = append(r.Features, app.Generate(rng).Features...)
		want := model.Predict(lvl, AppendObservableFeatures(nil, app.FeatureSpecs(), r, false, true))
		if got := out.m.predictAt(lvl, r); got != want {
			t.Fatalf("recycled request predicts %v, want %v from its own features", got, want)
		}
		if want != first {
			break
		}
		if tries == 100 {
			t.Fatal("no draw changes the prediction; the check cannot tell occupants apart")
		}
	}
}

// geminiWithQueue returns a Gemini whose worker holds one running and three
// queued requests, and the last of them.
func geminiWithQueue(tb testing.TB) (*Gemini, *workload.Request) {
	tb.Helper()
	app := varApp{base: 10e-3, slope: 0, spread: 1, qos: workload.QoS{Latency: 1, Percentile: 99}}
	rig := newRig(tb, app, 1)
	m := geminiFor(tb, rig, app)
	m.Attach(rig.e, rig.srv)
	var last *workload.Request
	rig.e.At(0, "burst", func(*sim.Engine) {
		for i := 0; i < 4; i++ {
			last = rig.submit(0)
		}
	})
	rig.e.Run(1e-3)
	return m, last
}

func TestGeminiPredictAtZeroAllocOnHit(t *testing.T) {
	m, r := geminiWithQueue(t)
	before := m.Inferences()
	if a := testing.AllocsPerRun(200, func() { m.predictAt(3, r) }); a != 0 {
		t.Fatalf("predictAt on a filled slot allocates %v times, want 0", a)
	}
	if m.Inferences() == before {
		t.Fatal("slot hits must still count as inferences")
	}
}

// BenchmarkGeminiStart times the level search Start runs per request (one
// consultation per tried level plus the final estimate): served from the
// prediction slot, and with the forward pass a request's first
// consultation pays.
func BenchmarkGeminiStart(b *testing.B) {
	m, r := geminiWithQueue(b)
	search := func() {
		policy.GeminiLevel(float64(m.qos.Latency), m.grid.MaxLevel(), func(lvl cpu.Level) float64 {
			return m.predictAt(lvl, r)
		})
	}
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			search()
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Pred.Gen = 0 // empty the slot, keeping its arrays
			search()
		}
	})
}

// One trained model serves every node of a fleet and every cell of a
// parallel sweep at once; run under -race this proves inference writes
// nothing shared.
func TestGeminiNodesShareOneModel(t *testing.T) {
	model := xapianNN(t)
	want := runGeminiNode(model, 11).digest
	var wg sync.WaitGroup
	got := make([]string, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = runGeminiNode(model, 11).digest
		}()
	}
	wg.Wait()
	for i, d := range got {
		if d != want {
			t.Errorf("node %d: digest %s, want %s", i, d, want)
		}
	}
}
