package main

import "encoding/json"

// The registry is the single list of workloads and metrics the harness
// knows. BENCHMARK.json at the repository root is benchmarkJSON()'s
// output (bench -benchmark-json prints it);
// TestRegistryMatchesBenchmarkJSON keeps the two from drifting.

// runSeconds is how long the driver asks one run to measure.
const runSeconds = 20

// Workload names, in the order every report uses.
const (
	wFleet = "fleet-shallow"
	wNode  = "node-deep"
	wSweep = "sweep-baselines"
	wTune  = "tune-replay"
	wLive  = "live-loopback"
)

type workloadDef struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json
}

var workloadDefs = []workloadDef{
	{wFleet, "one retail-cluster cell with queues of depth 1-2: latency trackers, engine and server do most of the work and Algorithm 1 about 3%, so stats/engine/server changes show here, policy ones barely"},
	{wNode, "retail-sim -spec -record on one node at 80% load: queues three deep give Algorithm 1 four times its fleet-shallow share, with the cohort generator, per-class targets and the trace write tap live"},
	{wSweep, "the paper's retail/rubik/gemini/eetl comparison as users run it: Gemini's NN training and forward pass are over 90% of it and none of any other workload"},
	{wTune, "the retail-tune flow: trace v2 decode, zero-RNG Player, policy.Params per candidate, sixteen core.Run replays of one recorded trace; generators do nothing, the read-side counterpart of node-deep"},
	{wLive, "the wire path decode-enqueue-decide-DVFS-execute-encode with a no-op executor, open loop at 5k/15k/30k RPS then closed loop, server in its own process so its CPU is separable from the generator's"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricDef describes one metric. EndToEnd metrics are defined on every
// workload and are the ones BENCHMARK.json lists under end_to_end; all
// others are listed under per_layer there. The compare rules (Bound,
// Exact, Abs, Floor, Step) are the harness's own and richer than the
// driver's single relative bound.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Layer is the package the metric costs, "" for user-visible metrics.
	Layer string
	// Owners are the workloads whose pass measures the metric: nil for
	// the universal end-to-end metrics and the per-run host metrics
	// (measured on whichever workload is selected), ownerProbe for the
	// workload-independent micro-probes.
	Owners []string

	EndToEnd bool
	Bound    float64 // relative worsening that counts as a regression
	Exact    bool    // simulated statistic: any change at a fixed seed is reported
	Abs      float64 // absolute worsening that counts as a regression
	Floor    float64 // differences below this are noise (same unit as the metric)
	Step     bool    // discrete ladder: any step down is a regression

	// Moves says which end-to-end metric this one should move, on which
	// workload — written down before anything is measured.
	Moves string
}

const ownerProbe = "probe"

var (
	simThree = []string{wFleet, wNode, wSweep}
	onFleet  = []string{wFleet}
	onNode   = []string{wNode}
	onSweep  = []string{wSweep}
	onTune   = []string{wTune}
	onLive   = []string{wLive}
	onProbe  = []string{ownerProbe}
)

var metricDefs = []metricDef{
	// Universal end-to-end metrics: every workload reports all four.
	{Name: "setup_s", Unit: "s", Better: "lower", EndToEnd: true, Bound: 0.25, Floor: 0.05,
		Moves: "process start to first timed call in a fresh process (calibration, warm-up, trace pre-draw and encode, server start)"},
	{Name: "req_per_s", Unit: "req/s", Better: "higher", EndToEnd: true, Bound: 0.25,
		Moves: "requests retired per wall second of the timed call: simulated requests (warm-up included) on the four simulator workloads, closed-loop completions on live-loopback"},
	{Name: "cpu_s_per_mreq", Unit: "s/Mreq", Better: "lower", EndToEnd: true, Bound: 0.25,
		Moves: "user+sys CPU per million requests: this process over the timed call (simulator), the server child over the 30k step (live); separates less work from more cores"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", EndToEnd: true, Bound: 0.25, Floor: 8,
		Moves: "ru_maxrss of the process under test (this process; the server child on live-loopback)"},

	// User-visible metrics defined on some workloads only.
	{Name: "sim_energy_j_per_req", Unit: "J", Better: "lower", Owners: simThree, Exact: true,
		Moves: "measured-window joules per completion (retail cells on sweep-baselines)"},
	{Name: "sim_qos_violation_frac", Unit: "fraction", Better: "lower", Owners: simThree, Exact: true,
		Moves: "(violations+drops)/(completions+drops) in the measured window"},
	{Name: "retail_saving_vs_rubik_pct", Unit: "%", Better: "higher", Owners: onSweep, Exact: true,
		Moves: "1 - sum E(retail cells)/sum E(rubik cells): the paper's headline"},
	{Name: "fail_frac", Unit: "fraction", Better: "lower", Abs: 0.001,
		Moves: "failed/attempted operations: errored or check-failing runs (simulator); dropped+unanswered+mis-stamped over sent (live)"},
	{Name: "live_p50_us", Unit: "us", Better: "lower", Owners: onLive, Bound: 0.25,
		Moves: "response arrival minus scheduled send at the 30k step, median of all samples"},
	{Name: "live_p99_us", Unit: "us", Better: "lower", Owners: onLive, Bound: 0.25,
		Moves: "same, p99 per segment of the 30k step, median of the segments"},
	{Name: "live_max_rate_ok_rps", Unit: "req/s", Better: "higher", Owners: onLive, Step: true,
		Moves: "highest of 5k/15k/30k with step p99 within the QoS latency (8 ms), nothing dropped or unanswered and no growing backlog"},

	// sim
	{Name: "sim.event_ns", Unit: "ns", Better: "lower", Layer: "sim", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow and node-deep; none on sweep-baselines"},
	{Name: "sim.events_per_req", Unit: "count", Better: "lower", Layer: "sim", Owners: onNode,
		Moves: "req_per_s on node-deep"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher", Layer: "sim", Owners: onNode,
		Moves: "req_per_s on node-deep"},

	// workload
	{Name: "workload.poisson_gen_ns_per_req", Unit: "ns", Better: "lower", Layer: "workload", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow"},
	{Name: "workload.cohort_gen_ns_per_req", Unit: "ns", Better: "lower", Layer: "workload", Owners: onProbe,
		Moves: "req_per_s on node-deep"},
	{Name: "workload.trace_record_ns_per_req", Unit: "ns", Better: "lower", Layer: "workload", Owners: onProbe,
		Moves: "req_per_s on node-deep (Record tap on)"},
	{Name: "workload.player_ns_per_req", Unit: "ns", Better: "lower", Layer: "workload", Owners: onProbe,
		Moves: "req_per_s on tune-replay"},
	{Name: "workload.trace_encode_mrec_per_s", Unit: "Mrec/s", Better: "higher", Layer: "workload", Owners: onProbe,
		Moves: "setup_s on tune-replay"},
	{Name: "workload.trace_decode_mrec_per_s", Unit: "Mrec/s", Better: "higher", Layer: "workload", Owners: onProbe,
		Moves: "req_per_s on tune-replay (decode is inside the timed call)"},
	{Name: "workload.trace_bytes_per_rec", Unit: "B", Better: "lower", Layer: "workload", Owners: onProbe,
		Moves: "peak_rss_mb and setup_s on tune-replay"},

	// server + cpu
	{Name: "server.noop_ns_per_req", Unit: "ns", Better: "lower", Layer: "server", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow and node-deep"},
	{Name: "cpu.setlevel_ns", Unit: "ns", Better: "lower", Layer: "cpu", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow and node-deep"},
	{Name: "cpu.dvfs_writes_per_req", Unit: "count", Better: "lower", Layer: "cpu", Owners: onNode,
		Moves: "req_per_s on node-deep through cpu.setlevel_ns"},
	{Name: "cpu.transitions_per_req", Unit: "count", Better: "lower", Layer: "cpu", Owners: onNode,
		Moves: "req_per_s on node-deep; a change is also a simulated-behaviour change"},

	// manager / policy / predict / nn
	{Name: "manager.arrival_ns", Unit: "ns", Better: "lower", Layer: "manager", Owners: onNode,
		Moves: "req_per_s on node-deep"},
	{Name: "manager.start_ns", Unit: "ns", Better: "lower", Layer: "manager", Owners: onNode,
		Moves: "req_per_s on node-deep"},
	{Name: "manager.complete_ns", Unit: "ns", Better: "lower", Layer: "manager", Owners: onNode,
		Moves: "req_per_s on node-deep"},
	{Name: "manager.hooks_ns_per_req", Unit: "ns", Better: "lower", Layer: "manager", Owners: onNode,
		Moves: "req_per_s on node-deep (about 30% of it); live req_per_s and live_p99_us share the policy code"},
	{Name: "manager.ladder_ns_per_req", Unit: "ns", Better: "lower", Layer: "manager", Owners: onFleet,
		Moves: "req_per_s on fleet-shallow (about a quarter of it: hooks, DVFS events, training set; Algorithm 1 itself about 3%)"},
	{Name: "policy.alg1_ns_q1", Unit: "ns", Better: "lower", Layer: "policy", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow (<=3%); live_p50_us at the 5k step"},
	{Name: "policy.alg1_ns_q8", Unit: "ns", Better: "lower", Layer: "policy", Owners: onProbe,
		Moves: "req_per_s on node-deep; live_p99_us at the 30k step"},
	{Name: "policy.alg1_ns_q64", Unit: "ns", Better: "lower", Layer: "policy", Owners: onProbe,
		Moves: "req_per_s on live-loopback (closed loop, 32 in flight per connection)"},
	{Name: "policy.dispatch_pick_ns", Unit: "ns", Better: "lower", Layer: "policy", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow"},
	{Name: "predict.lr_predict_ns", Unit: "ns", Better: "lower", Layer: "predict", Owners: onProbe,
		Moves: "req_per_s on node-deep; cpu_s_per_mreq on live-loopback"},
	{Name: "predict.calibrate_ms", Unit: "ms", Better: "lower", Layer: "predict", Owners: onProbe,
		Moves: "setup_s on every workload"},
	{Name: "nn.forward_us", Unit: "us", Better: "lower", Layer: "nn", Owners: onProbe,
		Moves: "req_per_s and cpu_s_per_mreq on sweep-baselines only"},
	{Name: "nn.train_s", Unit: "s", Better: "lower", Layer: "nn", Owners: onProbe,
		Moves: "req_per_s and cpu_s_per_mreq on sweep-baselines only"},

	// stats / telemetry / obs
	{Name: "stats.tracker_add_ns", Unit: "ns", Better: "lower", Layer: "stats", Owners: onProbe,
		Moves: "req_per_s on fleet-shallow (two Adds per completion) and node-deep"},
	{Name: "stats.quantiles_ms", Unit: "ms", Better: "lower", Layer: "stats", Owners: onProbe,
		Moves: "req_per_s and peak_rss_mb on fleet-shallow"},
	{Name: "stats.hdr_record_ns", Unit: "ns", Better: "lower", Layer: "stats", Owners: onProbe,
		Moves: "req_per_s on node-deep (per-class histograms)"},
	{Name: "telemetry.attached_overhead_frac", Unit: "fraction", Better: "lower", Layer: "telemetry", Owners: onFleet,
		Moves: "none by default (Registry is off); req_per_s on fleet-shallow when attached"},
	{Name: "obs.ledger_overhead_frac", Unit: "fraction", Better: "lower", Layer: "obs", Owners: onFleet,
		Moves: "none by default (Ledger is off); req_per_s on fleet-shallow when attached"},

	// cluster / core / experiments / tune
	{Name: "cluster.residual_ns_per_req", Unit: "ns", Better: "lower", Layer: "cluster", Owners: onFleet,
		Moves: "req_per_s on fleet-shallow: what the ladder rungs do not explain"},
	{Name: "core.residual_ns_per_req", Unit: "ns", Better: "lower", Layer: "core", Owners: onNode,
		Moves: "req_per_s on node-deep: what the probes and decorators do not explain"},
	{Name: "experiments.cells_per_s", Unit: "1/s", Better: "higher", Layer: "experiments", Owners: onSweep,
		Moves: "req_per_s on sweep-baselines"},
	{Name: "experiments.sweep_parallel_eff", Unit: "fraction", Better: "higher", Layer: "experiments", Owners: onSweep,
		Moves: "req_per_s but not cpu_s_per_mreq on sweep-baselines"},
	{Name: "tune.candidates_per_s", Unit: "1/s", Better: "higher", Layer: "tune", Owners: onTune,
		Moves: "req_per_s on tune-replay"},
	{Name: "tune.replayed_req_per_s", Unit: "req/s", Better: "higher", Layer: "tune", Owners: onTune,
		Moves: "req_per_s on tune-replay (tune.Run alone, decode excluded)"},
	{Name: "tune.parallel_speedup", Unit: "ratio", Better: "higher", Layer: "tune", Owners: onTune,
		Moves: "none on tune-replay, whose timed units replay sequentially; a retail-tune user's wall time at -parallel > 1"},

	// live: stage breakdown at the 30k step unless the name carries a step.
	{Name: "live.gen_lag_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "generator health; live_p50_us is not to be believed when this is large"},
	{Name: "live.gen_lag_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "generator health; a step is generator-bound above 25% of its p99"},
	{Name: "live.gen_sent_ratio", Unit: "fraction", Better: "higher", Layer: "live", Owners: onLive,
		Moves: "generator health; a step is generator-bound below 0.99"},
	{Name: "live.gen_cpu_us_per_req", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "generator health; competes with the server for the same cores"},
	{Name: "live.wire_in_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p50_us, cpu_s_per_mreq on live-loopback"},
	{Name: "live.wire_in_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p99_us"},
	{Name: "live.queue_decide_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p50_us"},
	{Name: "live.queue_decide_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p99_us, req_per_s on live-loopback, live_max_rate_ok_rps; rises at 30k before saturation moves"},
	{Name: "live.exec_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "none expected: the executor is a no-op"},
	{Name: "live.wire_out_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p50_us, cpu_s_per_mreq on live-loopback"},
	{Name: "live.wire_out_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p99_us"},
	{Name: "live.server_residence_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p50_us (EndNs - RecvNs)"},
	{Name: "live.p999_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "not gated: one host hiccup owns it"},
	{Name: "live.r5k_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "per-request syscall cost with idle queues"},
	{Name: "live.r5k_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_max_rate_ok_rps"},
	{Name: "live.r15k_p50_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_p50_us trend"},
	{Name: "live.r15k_p99_us", Unit: "us", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "live_max_rate_ok_rps"},
	{Name: "live.decisions_per_req", Unit: "count", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "cpu_s_per_mreq on live-loopback"},
	{Name: "live.dvfs_writes_per_req", Unit: "count", Better: "lower", Layer: "live", Owners: onLive,
		Moves: "cpu_s_per_mreq on live-loopback through live.backend_setlevel_ns"},
	{Name: "live.json_req_decode_ns", Unit: "ns", Better: "lower", Layer: "live", Owners: onProbe,
		Moves: "cpu_s_per_mreq and live_p50_us on live-loopback"},
	{Name: "live.json_resp_encode_ns", Unit: "ns", Better: "lower", Layer: "live", Owners: onProbe,
		Moves: "cpu_s_per_mreq and live_p50_us on live-loopback"},
	{Name: "live.backend_setlevel_ns", Unit: "ns", Better: "lower", Layer: "live", Owners: onProbe,
		Moves: "cpu_s_per_mreq on live-loopback"},

	// Host runtime, measured on the selected workload's traced pass.
	{Name: "go.alloc_bytes_per_req", Unit: "B", Better: "lower", Layer: "go",
		Moves: "cpu_s_per_mreq and peak_rss_mb on the selected workload"},
	{Name: "go.gc_cycles", Unit: "count", Better: "lower", Layer: "go",
		Moves: "cpu_s_per_mreq on the selected workload"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower", Layer: "go",
		Moves: "live_p99_us on live-loopback"},
	{Name: "trace_overhead_frac", Unit: "fraction", Better: "lower", Layer: "bench",
		Moves: "none: traced wall over untraced wall minus one, the cost of the harness's own decorators"},
}

func metricByName(name string) *metricDef {
	for i := range metricDefs {
		if metricDefs[i].Name == name {
			return &metricDefs[i]
		}
	}
	return nil
}

// definedOn reports whether the metric is measured by workload w's own
// passes (as opposed to being filled in from another workload's
// reduced-size walk in a driver-mode traced run).
func (m *metricDef) definedOn(w string) bool {
	if m.Owners == nil {
		return true
	}
	for _, o := range m.Owners {
		if o == w || o == ownerProbe {
			return true
		}
	}
	return false
}

// boundText renders the compare rule for the printed tables.
func (m *metricDef) boundText() string {
	switch {
	case m.Exact:
		return "exact"
	case m.Step:
		return "one step"
	case m.Abs > 0:
		return "abs " + trimFloat(m.Abs)
	case m.Bound > 0:
		s := trimFloat(m.Bound)
		if m.Floor > 0 {
			s += ", floor " + trimFloat(m.Floor)
		}
		return s
	}
	return "-"
}

// benchmarkJSON renders the driver's contract file from the registry.
func benchmarkJSON() []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type plain struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string  `json:"command"`
		Paths      []string  `json:"paths"`
		RunSeconds int       `json:"run_seconds"`
		Workloads  []named   `json:"workloads"`
		EndToEnd   []bounded `json:"end_to_end"`
		PerLayer   []plain   `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloadDefs {
		out.Workloads = append(out.Workloads, named(w))
	}
	for _, d := range metricDefs {
		if d.EndToEnd {
			out.EndToEnd = append(out.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
		} else {
			out.PerLayer = append(out.PerLayer, plain{d.Name, d.Unit, d.Better})
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err) // plain strings and numbers
	}
	return append(b, '\n')
}
