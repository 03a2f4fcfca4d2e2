// Package cluster models the paper's §VII-A deployment story beyond one
// node: "ReTail can be installed on every node in a datacenter … When
// interactions between nodes exist (e.g., for multi-tier applications
// …), the cluster scheduler which has global system visibility is
// responsible for determining the per-node QoS target for each service,
// which ReTail uses to manage power."
//
// A Pipeline is a chain of tiers (each its own server + ReTail instance);
// a request flows through every tier in order and the end-to-end QoS is
// the sum of the per-tier budgets the allocator hands out. The budget
// allocator splits the end-to-end target proportionally to each tier's
// profiled tail service time, leaving a configurable safety margin.
package cluster

import (
	"fmt"
	"math/rand"

	"retail/internal/core"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Tier is one stage of a multi-tier service.
type Tier struct {
	App     workload.App
	Workers int

	// Budget is the per-tier QoS target assigned by the allocator.
	Budget sim.Duration

	cal *core.Calibration
	srv *server.Server
}

// Pipeline chains tiers under one end-to-end QoS target.
type Pipeline struct {
	EndToEndQoS workload.QoS
	Tiers       []*Tier

	platform core.Platform
	rng      *rand.Rand

	sojourns *stats.LatencyTracker
	inflight map[uint64]*flight
	nextID   uint64
	done     int
}

type flight struct {
	gen  sim.Time
	tier int
}

// DefaultBudgetSamples is the per-tier profiling draw AllocateBudgets
// uses when the caller passes samples <= 0.
const DefaultBudgetSamples = 2000

// AllocateBudgets splits the end-to-end latency target across tiers in
// proportion to each tier's profiled tail (p95) service time at max
// frequency, scaled by (1 − margin) to leave headroom for network and
// estimation error. It is the "cluster scheduler with global visibility"
// step and must run before Build. samples is the per-tier profiling draw
// (<= 0 selects DefaultBudgetSamples); the returned slice holds each
// tier's profiled p95 service time, in tier order, so callers can report
// the allocation inputs alongside the budgets.
func AllocateBudgets(qos workload.QoS, tiers []*Tier, margin float64, samples int, seed int64) ([]sim.Duration, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("cluster: no tiers")
	}
	if margin < 0 || margin >= 1 {
		return nil, fmt.Errorf("cluster: margin %v outside [0,1)", margin)
	}
	if samples <= 0 {
		samples = DefaultBudgetSamples
	}
	tails := make([]float64, len(tiers))
	total := 0.0
	for i, t := range tiers {
		rng := rand.New(rand.NewSource(seed + int64(i)))
		svc := make([]float64, samples)
		for j := range svc {
			svc[j] = float64(t.App.Generate(rng).ServiceBase)
		}
		tails[i] = stats.Percentile(svc, 95)
		total += tails[i]
	}
	usable := float64(qos.Latency) * (1 - margin)
	if total <= 0 {
		return nil, fmt.Errorf("cluster: degenerate tier profile")
	}
	profiled := make([]sim.Duration, len(tiers))
	for i, t := range tiers {
		profiled[i] = sim.Duration(tails[i])
		t.Budget = sim.Duration(usable * tails[i] / total)
		if t.Budget <= profiled[i] {
			return nil, fmt.Errorf("cluster: tier %d (%s) budget %v below its own p95 service %v — end-to-end QoS infeasible",
				i, t.App.Name(), t.Budget, profiled[i])
		}
	}
	return profiled, nil
}

// NewPipeline builds the tiers' servers and ReTail runtimes, each managed
// against its allocated per-tier budget.
func NewPipeline(e *sim.Engine, qos workload.QoS, tiers []*Tier, platform core.Platform, samplesPerLevel int, seed int64) (*Pipeline, error) {
	p := &Pipeline{
		EndToEndQoS: qos,
		Tiers:       tiers,
		platform:    platform,
		rng:         rand.New(rand.NewSource(seed)),
		sojourns:    stats.NewLatencyTracker(4096, true),
		inflight:    map[uint64]*flight{},
	}
	for i, t := range tiers {
		if t.Budget <= 0 {
			return nil, fmt.Errorf("cluster: tier %d has no budget; run AllocateBudgets first", i)
		}
		// Calibrate against the tier's own budget: the per-node QoS the
		// scheduler assigned.
		tierApp := budgetedApp{App: t.App, qos: workload.QoS{Latency: t.Budget, Percentile: qos.Percentile}}
		cal, err := core.Calibrate(tierApp, platform.WithWorkers(t.Workers), samplesPerLevel, seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("cluster: tier %d calibration: %w", i, err)
		}
		t.cal = cal
		pm := platform.Power
		if i > 0 {
			pm.UncoreW = 0 // one shared uncore per node modeled on tier 0
		}
		t.srv = server.New(server.Config{
			App:     tierApp,
			Workers: t.Workers,
			Grid:    platform.Grid,
			Power:   pm,
			Trans:   platform.Trans,
			Seed:    platform.Seed + int64(i)*997,
		})
		rt := cal.NewReTail()
		rt.Attach(e, t.srv)
		tierIdx := i
		t.srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
			p.advance(en, tierIdx, r)
		}
	}
	return p, nil
}

// budgetedApp overrides an App's QoS with the tier budget.
type budgetedApp struct {
	workload.App
	qos workload.QoS
}

func (b budgetedApp) QoS() workload.QoS { return b.qos }

// Submit injects an end-to-end request at the current time. A non-nil r
// is honored as the tier-0 request — its features and service demand are
// what the front tier executes (the request should therefore come from
// the front tier's application, e.g. a workload.Generator over
// Tiers[0].App); its ID is rewritten to the pipeline's own sequence so
// end-to-end tracking never collides. A nil r draws a fresh tier-0
// request from the front tier's generator instead.
func (p *Pipeline) Submit(e *sim.Engine, r *workload.Request) {
	id := p.nextID
	p.nextID++
	p.inflight[id] = &flight{gen: e.Now(), tier: 0}
	if r == nil {
		r = p.Tiers[0].App.Generate(p.rng)
		r.Gen = e.Now()
	}
	r.ID = id
	p.Tiers[0].srv.Submit(e, r)
}

// enter generates the tier-local request (each downstream tier does its
// own work with its own features) and submits it to the tier's server.
func (p *Pipeline) enter(e *sim.Engine, id uint64, tier int) {
	t := p.Tiers[tier]
	r := t.App.Generate(p.rng)
	r.ID = id
	r.Gen = e.Now()
	t.srv.Submit(e, r)
}

// advance moves a completed tier-request to the next tier or records the
// end-to-end sojourn.
func (p *Pipeline) advance(e *sim.Engine, tier int, r *workload.Request) {
	fl := p.inflight[r.ID]
	if fl == nil || fl.tier != tier {
		return // a tier-local retry or stale completion; ignore
	}
	if tier+1 < len(p.Tiers) {
		fl.tier = tier + 1
		p.enter(e, r.ID, tier+1)
		return
	}
	p.sojourns.Add(float64(e.Now() - fl.gen))
	delete(p.inflight, r.ID)
	p.done++
}

// Completed returns the number of end-to-end completions.
func (p *Pipeline) Completed() int { return p.done }

// TailLatency returns the end-to-end tail at the QoS percentile.
func (p *Pipeline) TailLatency() (float64, bool) {
	return p.sojourns.Percentile(p.EndToEndQoS.Percentile)
}

// QoSMet reports whether the end-to-end constraint held.
func (p *Pipeline) QoSMet() bool {
	tail, ok := p.TailLatency()
	return ok && tail <= float64(p.EndToEndQoS.Latency)
}

// PowerW sums tier socket power since their last reset.
func (p *Pipeline) PowerW(now sim.Time) float64 {
	total := 0.0
	for _, t := range p.Tiers {
		total += t.srv.Socket.AveragePowerW(now)
	}
	return total
}

// ResetEnergy restarts power accounting on all tiers.
func (p *Pipeline) ResetEnergy(e *sim.Engine) {
	for _, t := range p.Tiers {
		t.srv.Socket.ResetEnergy(e.Now())
	}
}
