// Fleet: the horizontal half of the paper's §VII-A deployment story. The
// Pipeline in cluster.go models one request crossing tiers; a Fleet
// models many identical nodes behind a load balancer, each node running
// its own server and its own per-node DVFS policy ("ReTail can be
// installed on every node in a datacenter"), with the cross-node routing
// rule — the dispatcher — promoted to a first-class policy axis next to
// the DVFS policy itself.
//
// Everything runs on one deterministic event engine: a node is not a
// goroutine but a (server, manager) pair whose events interleave with
// every other node's in (time, seq) order, so a fleet run is exactly
// reproducible and placement decisions can be hashed into goldens.
package cluster

import (
	"fmt"
	"math"
	"strconv"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// FleetConfig describes one fleet run.
type FleetConfig struct {
	// Cal is the shared read-only calibration for the application every
	// node serves. For the gemini policy the network must already be
	// trained (call Cal.GeminiModel once before fanning runs out in
	// parallel); RunFleet trains it lazily otherwise.
	Cal *core.Calibration
	// Nodes is the fleet size; WorkersPerNode the per-node core count.
	Nodes          int
	WorkersPerNode int
	// Policy names the per-node DVFS manager (see policy.Names).
	Policy string
	// Dispatcher names the cross-node routing rule
	// (see policy.DispatcherNames). Empty falls back to
	// Params.Dispatch.Rule.
	Dispatcher string
	// GeminiNN overrides Gemini's network structure (nil = published).
	GeminiNN *nn.Config
	// Params is the serializable policy parameterization applied to every
	// node's manager (its ClassScales included, which the retail manager
	// installs itself) and to the dispatcher (rule + per-node weights).
	// The zero value keeps every historical constant.
	Params policy.Params

	// RPS is the fleet-wide offered load (split across nodes by the
	// dispatcher, not evenly).
	RPS      float64
	Warmup   sim.Duration // excluded from all measurements
	Duration sim.Duration // measurement window
	Seed     int64

	// Spec, Record and Replay choose the request stream exactly as in
	// core.RunConfig (one workload.Source); Record taps it pre-routing. A
	// spec's or trace's class table installs per-SLO-class QoS′ targets on
	// every node's manager that exposes SetClassTargets.
	Spec   *workload.Spec
	Record *workload.Trace
	Replay *workload.Trace

	// Registry, when non-nil, receives per-node telemetry under the
	// existing single-node metric families, keyed by a node=<i> label
	// plus any extra Labels (e.g. dispatcher=…, policy=… per sweep cell).
	Registry *telemetry.Registry
	Labels   []telemetry.Label

	// Ledger attaches an obs.NodeLedger to every node and fills
	// FleetResult.Ledger with per-node energy×QoS attribution over the
	// measurement window. Off by default: the ledger is a pure observer,
	// but the benchmarked hot path should not pay even observer costs
	// unless a run asked for attribution.
	Ledger bool

	// observe, when set, registers more observers on node i's server
	// after the ones above; the package's tests use it to attach flight
	// recorders and to vary the registration order.
	observe func(e *sim.Engine, i int, s *server.Server)
}

// NodeStats is one node's share of a fleet run's measurement window.
type NodeStats struct {
	Node       int
	Completed  int
	Dropped    int
	Violations int
	P99        float64 // seconds; 0 when the node saw no completions
	MeanLat    float64
	EnergyJ    float64
	AvgPowerW  float64
	Residency  []int // completions per served frequency level
}

// MeanServedLevel returns the completion-weighted mean frequency level.
func (n *NodeStats) MeanServedLevel() float64 {
	total, sum := 0, 0.0
	for lvl, c := range n.Residency {
		total += c
		sum += float64(lvl) * float64(c)
	}
	if total == 0 {
		return 0
	}
	return sum / float64(total)
}

// FleetResult aggregates a fleet run.
type FleetResult struct {
	App        string
	Dispatcher string
	Policy     string
	Nodes      int
	RPS        float64

	Completed  int
	Dropped    int
	Violations int

	MeanLatency  float64
	P50, P95     float64
	P99          float64
	TailAtQoSPct float64
	QoSTarget    float64
	QoSMet       bool

	EnergyJ   float64
	AvgPowerW float64
	Residency []int // fleet-wide completions per served level

	// PlacementHash is an FNV-1a hash over the dispatcher's placement
	// stream (every routed node index in arrival order, warmup included).
	// Two runs route identically iff their hashes match, which is how the
	// goldens pin dispatcher determinism without storing millions of
	// indices.
	PlacementHash uint64
	// Routed counts every routed request (warmup included) — the
	// placement stream length behind PlacementHash.
	Routed int
	// ImbalanceCV is the coefficient of variation of per-node completion
	// counts: 0 for a perfectly even spread, growing with routing skew.
	ImbalanceCV float64

	PerNode []NodeStats

	// Ledger holds per-node energy×QoS attribution (one entry per node,
	// in node order) when FleetConfig.Ledger was set: every joule of
	// EnergyJ lands in exactly one app × node × level cell (or the
	// node's uncore bucket) and every violation carries a cause.
	Ledger []obs.NodeSummary
}

// MeanServedLevel returns the fleet-wide completion-weighted mean level.
func (r *FleetResult) MeanServedLevel() float64 {
	n := NodeStats{Residency: r.Residency}
	return n.MeanServedLevel()
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashPlacement folds one routed node index into the FNV-1a stream hash.
func hashPlacement(h uint64, node int) uint64 {
	h ^= uint64(node)
	return h * fnvPrime
}

// RunFleet executes one fleet simulation: cfg.Nodes nodes, each with its
// own server and its own cfg.Policy manager, behind a cfg.Dispatcher
// load balancer, driven at cfg.RPS for Warmup+Duration virtual seconds.
func RunFleet(cfg FleetConfig) (*FleetResult, error) {
	if cfg.Cal == nil {
		return nil, fmt.Errorf("cluster: FleetConfig needs a Calibration")
	}
	if cfg.Nodes <= 0 || cfg.WorkersPerNode <= 0 {
		return nil, fmt.Errorf("cluster: need positive Nodes and WorkersPerNode")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("cluster: need positive Duration")
	}
	src := workload.Source{App: cfg.Cal.App, RPS: cfg.RPS, Seed: cfg.Seed,
		Spec: cfg.Spec, Replay: cfg.Replay, Record: cfg.Record}
	// The effective offered load sizes the latency buffers and is what the
	// result reports.
	rps, err := src.Open(cfg.Warmup + cfg.Duration)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	_, classScales := src.Classes()
	rule := cfg.Dispatcher
	if rule == "" {
		rule = cfg.Params.Dispatch.Rule
	}
	disp, err := policy.NewDispatcherWithWeights(rule, cfg.Seed, cfg.Params.Dispatch.Weights)
	if err != nil {
		return nil, err
	}
	app := cfg.Cal.App
	qos := app.QoS()
	platform := cfg.Cal.Platform.WithWorkers(cfg.WorkersPerNode)
	e := sim.NewEngine()

	type node struct {
		srv  *server.Server
		lat  *stats.LatencyTracker
		st   NodeStats
		ends sim.Time
	}
	nodes := make([]*node, cfg.Nodes)
	var ledgers []*obs.NodeLedger
	outstanding := make([]int, cfg.Nodes) // O(1) load probe per node
	// Requests are pooled: the fleet's sinks are the end of every
	// request's life (managers release their per-request state in their
	// Complete hooks, which run first), so retired nodes recycle through
	// the generator instead of churning the allocator. Identical values
	// either way — only allocation counts change.
	pool := &workload.RequestPool{}
	measuring := false
	fleetLat := stats.NewLatencyTracker(0, true)
	// Expected completions during the measured window; presizing the
	// keepAll buffers spares their append-doubling reallocations.
	expect := int(rps*float64(cfg.Duration)) + 64
	fleetLat.ReserveAll(expect)
	levels := platform.Grid.Levels()

	for i := range nodes {
		n := &node{
			lat: stats.NewLatencyTracker(0, true),
			st:  NodeStats{Node: i, Residency: make([]int, levels)},
		}
		n.lat.ReserveAll(expect/cfg.Nodes + expect/(4*cfg.Nodes) + 64)
		n.srv = server.New(server.Config{
			App:     app,
			Workers: cfg.WorkersPerNode,
			Grid:    platform.Grid,
			Power:   platform.Power,
			Trans:   platform.Trans,
			Seed:    server.RandomizedSeed(platform.Seed^cfg.Seed, int64(i)+1),
		})
		// Every node gets private controller state; a Gemini fleet shares
		// the calibration's one trained network.
		mgr, err := cfg.Cal.NewManagerParams(cfg.Policy, cfg.GeminiNN, cfg.Params)
		if err != nil {
			return nil, fmt.Errorf("cluster: node policy: %w", err)
		}
		if len(classScales) > 0 {
			if ct, ok := mgr.(interface{ SetClassTargets(policy.ClassTargets) }); ok {
				ct.SetClassTargets(policy.NewClassTargets(classScales))
			}
		}
		mgr.Attach(e, n.srv)
		if cfg.Registry != nil {
			labels := append(append([]telemetry.Label{},
				cfg.Labels...), telemetry.L("node", strconv.Itoa(i)))
			server.AttachTelemetry(n.srv, cfg.Registry, app.Name(), qos, labels...)
		}
		if cfg.Ledger {
			// Managers that emit no decisions (EETL) still get energy and
			// violation tallies; causes then use the no-decision fallback.
			ledgers = append(ledgers, obs.AttachLedger(n.srv, qos))
		}
		if cfg.observe != nil {
			cfg.observe(e, i, n.srv)
		}
		idx := i
		n.srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
			outstanding[idx]--
			if measuring {
				soj := float64(r.Sojourn())
				n.lat.Add(soj)
				fleetLat.Add(soj)
				n.st.Completed++
				if soj > float64(qos.Latency) {
					n.st.Violations++
				}
				if lvl := r.ServedLevel; lvl >= 0 && lvl < levels {
					n.st.Residency[lvl]++
				}
			}
			pool.Put(r)
		}
		n.srv.DroppedSink = func(en *sim.Engine, r *workload.Request) {
			outstanding[idx]--
			if measuring {
				n.st.Dropped++
			}
			pool.Put(r)
		}
		nodes[i] = n
	}

	load := func(i int) int { return outstanding[i] }
	hash := uint64(fnvOffset)
	routed := 0
	route := func(en *sim.Engine, r *workload.Request) {
		i := disp.Pick(cfg.Nodes, load)
		hash = hashPlacement(hash, i)
		routed++
		outstanding[i]++
		nodes[i].srv.Submit(en, r)
	}

	stopGen := src.Start(e, pool, route)
	e.At(cfg.Warmup, "fleet.measure", func(en *sim.Engine) {
		measuring = true
		for _, n := range nodes {
			n.srv.Socket.ResetEnergy(en.Now())
		}
		// Same event, same epoch: ledger counts and socket joules cover
		// exactly the measurement window, so they reconcile at the end.
		for _, led := range ledgers {
			led.Reset()
		}
	})
	end := cfg.Warmup + cfg.Duration
	e.Run(end)
	stopGen()

	res := &FleetResult{
		App:           app.Name(),
		Dispatcher:    disp.Name(),
		Policy:        cfg.Policy,
		Nodes:         cfg.Nodes,
		RPS:           rps,
		QoSTarget:     float64(qos.Latency),
		Residency:     make([]int, levels),
		PlacementHash: hash,
		Routed:        routed,
	}
	for i, n := range nodes {
		n.st.EnergyJ = n.srv.Socket.EnergyJoules(end)
		n.st.AvgPowerW = n.srv.Socket.AveragePowerW(end)
		if cfg.Ledger {
			res.Ledger = append(res.Ledger, ledgers[i].Summary(app.Name(), i,
				n.srv.Socket.EnergyByLevel(end), n.srv.Socket.UncoreJoules(end)))
		}
		if n.lat.Count() > 0 {
			if p, ok := n.lat.Percentile(99); ok {
				n.st.P99 = p
			}
			n.st.MeanLat = n.lat.Mean()
		}
		res.Completed += n.st.Completed
		res.Dropped += n.st.Dropped
		res.Violations += n.st.Violations
		res.EnergyJ += n.st.EnergyJ
		res.AvgPowerW += n.st.AvgPowerW
		for lvl, c := range n.st.Residency {
			res.Residency[lvl] += c
		}
		res.PerNode = append(res.PerNode, n.st)
	}
	if fleetLat.Count() > 0 {
		qs := fleetLat.Quantiles(0.50, 0.95, 0.99, qos.Percentile/100)
		res.P50, res.P95, res.P99, res.TailAtQoSPct = qs[0], qs[1], qs[2], qs[3]
		res.MeanLatency = fleetLat.Mean()
		res.QoSMet = res.TailAtQoSPct <= res.QoSTarget
	}
	res.ImbalanceCV = completionCV(res.PerNode)
	return res, nil
}

// completionCV returns stddev/mean of per-node completion counts.
func completionCV(per []NodeStats) float64 {
	if len(per) == 0 {
		return 0
	}
	mean := 0.0
	for _, n := range per {
		mean += float64(n.Completed)
	}
	mean /= float64(len(per))
	if mean == 0 {
		return 0
	}
	varsum := 0.0
	for _, n := range per {
		d := float64(n.Completed) - mean
		varsum += d * d
	}
	return math.Sqrt(varsum/float64(len(per))) / mean
}
