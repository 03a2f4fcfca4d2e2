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
	"retail/internal/manager"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// FleetPolicies lists the per-node DVFS policies a fleet node can run:
// the paper's manager (retail), its two headline baselines, and the
// progress-threshold baseline.
func FleetPolicies() []string { return []string{"retail", "rubik", "gemini", "eetl"} }

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
	// Policy names the per-node DVFS manager (see FleetPolicies).
	Policy string
	// Dispatcher names the cross-node routing rule
	// (see policy.DispatcherNames). Empty falls back to
	// Params.Dispatch.Rule.
	Dispatcher string
	// GeminiNN overrides Gemini's network structure (nil = published).
	GeminiNN *nn.Config
	// Params is the serializable policy parameterization applied to every
	// node's manager, to the dispatcher (rule + per-node weights) and —
	// when neither a spec nor a replay trace carries a class table — to
	// the per-SLO-class QoS′ targets. The zero value keeps every
	// historical constant.
	Params policy.Params

	// RPS is the fleet-wide offered load (split across nodes by the
	// dispatcher, not evenly).
	RPS      float64
	Warmup   sim.Duration // excluded from all measurements
	Duration sim.Duration // measurement window
	Seed     int64

	// Spec, when non-nil, drives the fleet with the cohort population
	// instead of the single Poisson generator (see core.RunConfig.Spec
	// for the contract: single-app, matching Cal.App; RPS > 0 rescales).
	// Per-SLO-class QoS′ targets from the spec's class table install on
	// every node's manager that exposes SetClassTargets.
	Spec *workload.Spec
	// Record taps every generated arrival (pre-routing, warmup included)
	// into the trace; Replay substitutes a recorded stream for any
	// generator. Mutually exclusive with Spec, same rules as core.Run.
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

// newNodeManager builds one node's DVFS manager from the shared
// calibration under the fleet's policy parameterization. gemProto
// carries the trained network; per-node Gemini instances share it but
// keep private controller state, the same cloning pattern the Fig 11
// sweep uses across cells.
func newNodeManager(name string, cal *core.Calibration, gemProto *manager.Gemini, p policy.Params) (manager.Manager, error) {
	switch name {
	case "retail":
		return cal.NewReTailParams(p), nil
	case "rubik":
		return cal.NewRubikParams(p), nil
	case "gemini":
		if gemProto == nil {
			return nil, fmt.Errorf("cluster: gemini policy needs a trained prototype")
		}
		gcfg := core.ApplyGeminiParams(gemProto.Config(), p)
		return manager.NewGemini(cal.App.QoS(), cal.App.FeatureSpecs(), gcfg), nil
	case "eetl":
		return cal.NewEETLParams(p), nil
	default:
		return nil, fmt.Errorf("cluster: unknown node policy %q (have %v)", name, FleetPolicies())
	}
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
	if cfg.RPS <= 0 && cfg.Spec == nil && cfg.Replay == nil {
		return nil, fmt.Errorf("cluster: need positive RPS (or a Spec/Replay source)")
	}
	if cfg.Spec != nil && cfg.Replay != nil {
		return nil, fmt.Errorf("cluster: Spec and Replay are mutually exclusive")
	}
	var classScales []float64
	switch {
	case cfg.Replay != nil:
		apps := cfg.Replay.Header.Apps
		if len(apps) != 1 || apps[0] != cfg.Cal.App.Name() {
			return nil, fmt.Errorf("cluster: replay trace apps %v do not match app %q", apps, cfg.Cal.App.Name())
		}
		classScales = cfg.Replay.Header.Scales
	case cfg.Spec != nil:
		specApp, err := cfg.Spec.SingleApp()
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		if specApp.Name() != cfg.Cal.App.Name() {
			return nil, fmt.Errorf("cluster: spec %q targets app %q, fleet serves %q", cfg.Spec.Name, specApp.Name(), cfg.Cal.App.Name())
		}
		_, classScales = cfg.Spec.Classes()
	}
	if len(classScales) == 0 {
		classScales = cfg.Params.ClassScales
	}
	rule := cfg.Dispatcher
	if rule == "" {
		rule = cfg.Params.Dispatch.Rule
	}
	disp, err := policy.NewDispatcherWithWeights(rule, cfg.Seed, cfg.Params.Dispatch.Weights)
	if err != nil {
		return nil, err
	}
	var gemProto *manager.Gemini
	if cfg.Policy == "gemini" {
		gemProto, err = cfg.Cal.NewGemini(cfg.GeminiNN)
		if err != nil {
			return nil, err
		}
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
	// Resolve the effective offered load up front: it sizes the latency
	// buffers and is what the result reports.
	spec := cfg.Spec
	if spec != nil && cfg.RPS > 0 {
		spec = spec.ScaledTo(cfg.RPS)
	}
	rps := cfg.RPS
	if spec != nil {
		rps = spec.TotalRPS()
	}
	if cfg.Replay != nil {
		rps = float64(len(cfg.Replay.Records)) / float64(cfg.Warmup+cfg.Duration)
	}
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
		mgr, err := newNodeManager(cfg.Policy, cfg.Cal, gemProto, cfg.Params)
		if err != nil {
			return nil, err
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
			server.AttachTelemetryWith(n.srv, cfg.Registry, app.Name(), qos, labels...)
		}
		if cfg.Ledger {
			led := obs.AttachLedger(n.srv, qos)
			// Managers without a decision sink (EETL) still get energy and
			// violation tallies; causes then use the no-decision fallback.
			if ds, ok := mgr.(interface{ SetDecisionSink(server.DecisionSink) }); ok {
				ds.SetDecisionSink(led)
			}
			ledgers = append(ledgers, led)
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

	sink := route
	if cfg.Record != nil {
		// The tap sees warmup arrivals too.
		arrivals := int(rps * float64(cfg.Warmup+cfg.Duration))
		cfg.Record.Reserve(len(cfg.Record.Records) + arrivals + arrivals/32 + 64)
		sink = cfg.Record.RecordSink(sink)
	}
	var stopGen func()
	switch {
	case cfg.Replay != nil:
		pl := workload.NewPlayer(cfg.Replay, sink)
		pl.Pool = pool
		pl.Start(e)
		stopGen = pl.Stop
	case spec != nil:
		cg := workload.NewCohortGenerator(spec, cfg.Seed, sink)
		cg.Pool = pool
		cg.Start(e)
		stopGen = cg.Stop
	default:
		gen := workload.NewGenerator(app, cfg.RPS, cfg.Seed, sink)
		gen.Pool = pool
		gen.Start(e)
		stopGen = gen.Stop
	}
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
