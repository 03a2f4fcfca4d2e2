package workload

import (
	"math"
	"math/rand"

	"retail/internal/sim"
	"retail/internal/splitmix"
)

// CohortGenerator runs a Spec's full client population against one sim
// engine, presenting the same surface as Generator (Start/Stop/Sink/Pool)
// so the runtimes consume either unchanged. Every client is an
// independent arrival process with a private RNG stream; the merged
// stream is deterministic because the engine is single-threaded and
// FIFO-stable at equal timestamps, and every random draw is attributable
// to exactly one (client, call-index) pair. Request IDs are assigned
// globally in arrival order, and SLOClass indexes the spec's class table.
type CohortGenerator struct {
	Spec *Spec
	// Sink receives each request at its arrival time (same contract as
	// Generator.Sink).
	Sink func(e *sim.Engine, r *Request)
	// Pool, when set, recycles Request nodes exactly as in Generator: the
	// pooled and unpooled paths share the RNG call sequence, so pooling
	// never changes the stream.
	Pool *RequestPool

	clients []*cohortClient
	next    uint64
	// rateScale multiplies every client's instantaneous rate; chaos plans
	// use it to impose overload windows on top of the spec's own arrival
	// process, so bursts compose with (rather than replace) MMPP
	// correlation.
	rateScale float64
	stopped   bool
}

// cohortClient is one member of one cohort: its own RNG, arrival-process
// state, base rate and envelope.
type cohortClient struct {
	owner    *CohortGenerator
	app      App
	inPlace  InPlaceGenerator
	rng      *rand.Rand
	proc     arrivalProcess
	baseRate float64
	envelope []EnvelopePeriod
	class    uint8
	arrive   func(*sim.Engine, any)
}

// NewCohortGenerator builds the population for a validated spec. seed is
// the run seed: it is mixed with the spec's own seed and each client's
// (cohort, client) index through splitmix64, so every client draws from a
// decorrelated stream and the whole run is reproducible from (spec, seed).
func NewCohortGenerator(spec *Spec, seed int64, sink func(*sim.Engine, *Request)) *CohortGenerator {
	g := &CohortGenerator{Spec: spec, Sink: sink, rateScale: 1}
	names, _ := spec.Classes()
	classIdx := map[string]uint8{}
	for i, n := range names {
		classIdx[n] = uint8(i)
	}
	base := splitmix.Mix(uint64(seed) ^ splitmix.Mix(uint64(spec.Seed)))
	for ci, c := range spec.Cohorts {
		app := ByName(c.App)
		rates := clientRates(c.RPS, c.Clients, c.RateSkew)
		cohortBase := splitmix.Mix(base + uint64(ci))
		for ki := 0; ki < c.Clients; ki++ {
			cl := &cohortClient{
				owner:    g,
				app:      app,
				rng:      rand.New(rand.NewSource(int64(splitmix.Mix(cohortBase + uint64(ki))))),
				proc:     newArrival(c.Arrival),
				baseRate: rates[ki],
				envelope: c.Envelope,
				class:    classIdx[c.Class],
			}
			cl.inPlace, _ = app.(InPlaceGenerator)
			cl.arrive = func(en *sim.Engine, _ any) { cl.onArrival(en) }
			g.clients = append(g.clients, cl)
		}
	}
	return g
}

// clientRates splits a cohort's aggregate rate across clients by a Zipf
// weight (i+1)^-skew — skew 0 splits evenly, larger skews concentrate
// load on the first clients.
func clientRates(total float64, clients int, skew float64) []float64 {
	weights := make([]float64, clients)
	sum := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+1), -skew)
		sum += weights[i]
	}
	for i := range weights {
		weights[i] = total * weights[i] / sum
	}
	return weights
}

// Start schedules every client's first arrival.
func (g *CohortGenerator) Start(e *sim.Engine) {
	for _, cl := range g.clients {
		cl.scheduleNext(e)
	}
}

// Stop halts future arrivals (already-scheduled ones may still fire once,
// matching Generator.Stop).
func (g *CohortGenerator) Stop() { g.stopped = true }

// SetRateScale multiplies every client's instantaneous rate for
// subsequent gaps. Chaos overload windows use it the way plan.Burst uses
// Generator.SetRPS, without disturbing per-client arrival-process state.
func (g *CohortGenerator) SetRateScale(f float64) { g.rateScale = f }

func (cl *cohortClient) scheduleNext(e *sim.Engine) {
	g := cl.owner
	if g.stopped {
		return
	}
	// The envelope modulates the instantaneous rate: each gap is drawn at
	// the rate in force at its start (a piecewise-constant approximation
	// of the non-homogeneous process — exact in the limit of gaps short
	// against the envelope period, and deterministic regardless).
	rate := cl.baseRate * g.rateScale * EnvelopeAt(cl.envelope, float64(e.Now()))
	if rate <= 0 {
		return
	}
	gap := sim.Duration(cl.proc.NextGap(cl.rng, rate))
	e.AfterCall(gap, "workload.arrival", cl.arrive, nil)
}

func (cl *cohortClient) onArrival(en *sim.Engine) {
	g := cl.owner
	if g.stopped {
		return
	}
	var r *Request
	if g.Pool != nil && cl.inPlace != nil {
		r = g.Pool.Get()
		cl.inPlace.GenerateInto(r, cl.rng)
	} else {
		r = cl.app.Generate(cl.rng)
	}
	r.ID = g.next
	g.next++
	r.Gen = en.Now()
	r.SLOClass = cl.class
	if g.Sink != nil {
		g.Sink(en, r)
	}
	cl.scheduleNext(en)
}
