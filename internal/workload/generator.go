package workload

import (
	"math/rand"
	"sync"

	"retail/internal/sim"
)

// Generator produces an open-loop Poisson request stream for one
// application, matching the paper's Tailbench client: inter-arrival times
// are exponential so requests are sent independently of the server's state
// (§VII-A). Each generated request carries its client generation timestamp
// (t1) in Gen.
type Generator struct {
	App  App
	RPS  float64
	rng  *rand.Rand
	next uint64
	// Sink receives each request at its arrival time.
	Sink func(e *sim.Engine, r *Request)

	// Pool, when set, supplies recycled Request nodes for apps that
	// implement InPlaceGenerator; the sink's owner returns finished
	// requests with Pool.Put. Requests then carry identical values to the
	// allocate-per-request path (the RNG call sequence is shared), so
	// enabling a pool never changes simulation results — only allocation
	// counts. Apps without GenerateInto fall back to Generate.
	Pool *RequestPool

	inPlace InPlaceGenerator // App's fast path, resolved once
	arrive  func(*sim.Engine, any)
	stopped bool
}

// NewGenerator returns a generator with its own deterministic RNG stream.
func NewGenerator(app App, rps float64, seed int64, sink func(*sim.Engine, *Request)) *Generator {
	g := &Generator{App: app, RPS: rps, rng: rand.New(rand.NewSource(seed)), Sink: sink}
	g.inPlace, _ = app.(InPlaceGenerator)
	g.arrive = func(en *sim.Engine, _ any) { g.onArrival(en) }
	return g
}

// Start schedules the first arrival. Arrivals continue until Stop or until
// the engine's horizon ends.
func (g *Generator) Start(e *sim.Engine) {
	g.scheduleNext(e)
}

// Stop halts future arrivals (already-scheduled ones may still fire once).
func (g *Generator) Stop() { g.stopped = true }

// SetRPS changes the arrival rate for subsequent gaps (load ramps).
func (g *Generator) SetRPS(rps float64) { g.RPS = rps }

func (g *Generator) scheduleNext(e *sim.Engine) {
	if g.stopped || g.RPS <= 0 {
		return
	}
	gap := sim.Duration(g.rng.ExpFloat64() / g.RPS)
	e.AfterCall(gap, "workload.arrival", g.arrive, nil)
}

func (g *Generator) onArrival(en *sim.Engine) {
	if g.stopped {
		return
	}
	var r *Request
	if g.Pool != nil && g.inPlace != nil {
		r = g.Pool.Get()
		g.inPlace.GenerateInto(r, g.rng)
	} else {
		r = g.App.Generate(g.rng)
	}
	r.ID = g.next
	g.next++
	r.Gen = en.Now()
	if g.Sink != nil {
		g.Sink(en, r)
	}
	g.scheduleNext(en)
}

// ---------------------------------------------------------------------------
// Load calibration.

var meanServiceCache sync.Map // app name → float64 seconds

// MeanServiceAtMax estimates an application's mean intrinsic service time
// at the maximum frequency via a fixed-seed Monte Carlo draw. The estimate
// is memoized per application name.
func MeanServiceAtMax(a App) float64 {
	if v, ok := meanServiceCache.Load(a.Name()); ok {
		return v.(float64)
	}
	rng := rand.New(rand.NewSource(0x5eed))
	const n = 8192
	total := 0.0
	if ip, ok := a.(InPlaceGenerator); ok {
		var r Request
		for i := 0; i < n; i++ {
			ip.GenerateInto(&r, rng)
			total += float64(r.ServiceBase)
		}
	} else {
		for i := 0; i < n; i++ {
			total += float64(a.Generate(rng).ServiceBase)
		}
	}
	mean := total / n
	meanServiceCache.Store(a.Name(), mean)
	return mean
}
