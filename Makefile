# ReTail reproduction — common developer entry points.
#
#   make build   compile every package and command
#   make test    tier-1 test suite (what CI gates on)
#   make race    full suite under the race detector
#   make vet     static analysis
#   make linkcheck       every production function under internal/ is linked
#                        into a binary (cmd/, examples/, bench/) or allowlisted
#   make portable-check  vet the tree as arm64 and build it as 386: the Go
#                        kernels internal/nn runs off amd64 (no download;
#                        amd64 without AVX is covered by the kernel tests)
#   make bench   telemetry hot-path + paper-table benchmarks
#   make bench-check     hot-path micro-benchmarks once under -race (CI
#                        smoke) + BenchmarkClusterFleet timed and gated
#                        against results/BENCH_cluster.json
#   make bench-baseline  regenerate results/BENCH_*.json via cmd/benchjson
#                        and append to results/BENCH_history.jsonl
#   make bench-e2e       the bench/ harness end to end (BENCHMARK.json's
#                        command): five workloads, untraced pass, one JSON
#                        document under .bench_build/
#   make trace-check     fixed-seed Chrome trace vs committed golden bytes
#   make trace-golden    rewrite the golden after an intentional format change
#   make chaos-check     fault-injection suite: injector contracts, degradation
#                        paths, live replays, sim matrix vs committed golden
#   make chaos-golden    rewrite the chaos golden after an intentional change
#   make parity-check    replay parity under -race: one recorded simulator
#                        trace through the live runtime's decider must yield
#                        byte-identical decisions (DESIGN.md §10)
#   make parity-golden   rewrite the parity decision-stream golden
#   make cluster-check   fleet sweep determinism: dispatcher streams, fleet
#                        runs, sweep table vs golden + multi-seed SHA-256
#   make cluster-golden  rewrite the fleet sweep goldens
#   make obs-check       observability plane: seeded report vs committed
#                        golden (byte-stable modulo provenance), ledger
#                        reconciliation + pure-observer pins, zero-alloc
#                        decide with ledger, scrape-under-sweep race,
#                        BENCH_history.jsonl schema validation
#   make obs-golden      rewrite the report golden after an intentional change
#   make workload-check  cohort workload gate: arrival-process statistics,
#                        trace v2 header schema, fixed-seed cohort sweep vs
#                        committed golden (per-spec table, per-SLO-class
#                        latency, trace + decision SHA-256), -parallel 1 vs 8
#                        byte-identity, record→replay→re-record round trips
#   make workload-golden rewrite the workload sweep golden after an
#                        intentional change
#   make tune-check      policy-params + digital-twin gate: params schema
#                        round-trip/SHA pins, search-spec enumeration, and
#                        the fixed-seed retail tune winners table vs its
#                        committed golden with -parallel 1 vs 8 byte
#                        identity and exact winner-replay reproduction
#   make tune-golden     rewrite the tune winners golden after an
#                        intentional change
#   make smoke   build-and-run every example and command briefly
#   make check   build + vet + test (the pre-commit bundle)

GO ?= go

# The hot-path micro-benchmarks tracked across PRs: the event loop
# (freelist; the calendar queue on the simulator's own bimodal event
# population), Algorithm 1 decisions (per-request prediction slots), the
# per-completion latency recorder (ring window), Gemini's network
# (batch-major training on AVX kernels, forward pass, one pass per
# request into its prediction slot), the small NN shapes' training (where a
# kernel call's fixed cost weighs most), the live wire codec (each
# direction beside the encoding/json call it stands in for), the sweep
# runner and the fleet simulator. bench-check runs each exactly once under the
# race detector — a correctness smoke, not a measurement — and then
# times BenchmarkClusterFleet for real and gates it against the
# committed baseline. The gate tolerance (benchjson defaults: 3x on
# ns/op, 1.25x on allocs/op) is deliberately loose on wall time —
# cross-machine clocks and CPU governors add noise — but the PR-7
# optimization was >2x on ns and >40x on allocs, so even the loose gate
# catches a full relapse. bench-baseline produces the committed JSON
# trajectories from a real timed run and appends each refresh to the
# append-only results/BENCH_history.jsonl.
HOT_BENCH = 'Benchmark(Engine(AfterFire|ScheduleCancel)|RetailDecide|GeminiStart|LatencyTrackerAdd|NNFit(Gemini|Tuned)|InferenceGemini|Wire(RequestDecode|ResponseEncode)|Sweep|Cluster)|BenchmarkQueue/calendar/fleetShape'
HOT_PKGS  = ./internal/sim ./internal/manager ./internal/stats ./internal/nn ./internal/live ./internal/experiments ./internal/cluster

.PHONY: build test race vet linkcheck portable-check bench bench-check bench-baseline bench-e2e trace-check trace-golden chaos-check chaos-golden parity-check parity-golden cluster-check cluster-golden obs-check obs-golden workload-check workload-golden tune-check tune-golden smoke check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Code that only tests call belongs in the tests: builds every binary with
# inlining off and fails on a function under internal/ that none of them
# links and that tools/linkcheck's allowlist does not name.
linkcheck:
	$(GO) run ./tools/linkcheck

# internal/nn's trainer runs AVX assembly on amd64 hosts that have AVX and
# its Go loops everywhere else (amd64 without AVX runs them through the same
# dispatch, which the kernel tests cover); this keeps the other
# architectures compiling and vetted.
portable-check:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=386 $(GO) build ./...

bench:
	$(GO) test -bench 'Benchmark(Counter|Gauge|Histogram|Snapshot)' -benchmem -run '^$$' ./internal/telemetry ./
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

bench-check:
	$(GO) test -race -run '^$$' -bench $(HOT_BENCH) -benchtime=1x $(HOT_PKGS)
	$(GO) test -run '^$$' -bench 'BenchmarkClusterFleet$$' -benchmem ./internal/cluster | $(GO) run ./cmd/benchjson -gate results/BENCH_cluster.json

bench-baseline:
	$(GO) test -run '^$$' -bench $(HOT_BENCH) -benchmem ./internal/sim ./internal/manager ./internal/stats ./internal/nn ./internal/live ./internal/experiments | $(GO) run ./cmd/benchjson -history results/BENCH_history.jsonl > results/BENCH_sweep.json
	$(GO) test -run '^$$' -bench 'BenchmarkCluster' -benchmem ./internal/cluster | $(GO) run ./cmd/benchjson -history results/BENCH_history.jsonl > results/BENCH_cluster.json

# The end-to-end harness exactly as BENCHMARK.json's driver runs it:
# every workload in fresh child processes, untraced, seed 1. The document
# lands under .bench_build/ (git-ignored); compare two of them with
# `bash bench/run.sh -compare a.json b.json`.
bench-e2e:
	bash bench/run.sh -seed 1 -trace 0 -out .bench_build/e2e.json

# The Chrome trace exporter's bytes are a contract (Perfetto tooling,
# diffable artifacts): a fixed-seed simulation must serialize identically
# on every run; the flight recorder feeding it must keep its spans
# attributed, bounded and tail-sampled, and observe without perturbing.
# trace-golden rewrites the committed file after an intentional format
# change.
trace-check:
	$(GO) test -run 'TestChromeTrace(Golden|Deterministic)|TestFlightRecorder' -count=1 ./internal/trace

trace-golden:
	$(GO) test -run TestChromeTraceGolden -count=1 ./internal/trace -update

# The fault-injection and graceful-degradation suite (DESIGN.md §9):
# injector determinism and zero-alloc contracts, DVFS retry/fallback and
# shedding paths, fixed-seed live replays of the built-in plans, and the
# simulator chaos matrix compared byte-for-byte against its golden.
# chaos-golden rewrites the committed matrix after an intentional change.
CHAOS_TESTS = 'TestInjector|TestFault|TestPlan|TestCorrupting|TestApplyLevel|TestSysfsBackendReconcile|TestShed|TestClientRetries|TestDeadlineDrop|TestServerExecFault|TestRunLoadServerGone|TestChaos|TestLiveChaos'
chaos-check:
	$(GO) test -count=1 -run $(CHAOS_TESTS) ./internal/fault ./internal/live ./internal/experiments

chaos-golden:
	$(GO) test -run TestChaosSimGolden -count=1 ./internal/experiments -update

# Replay parity (DESIGN.md §10): the simulator adapter records every
# input the shared decision core consumed; replaying the trace through
# the live adapter's decider must reproduce the decision stream
# byte-for-byte, including the negative control proving the check can
# fail. Runs under -race because the live decider is the concurrent one.
parity-check:
	$(GO) test -race -count=1 -run 'TestReplayParity' ./internal/experiments

parity-golden:
	$(GO) test -run TestReplayParity -count=1 ./internal/experiments -update

# The cluster layer's determinism gate: dispatcher placement streams,
# fleet runs and the routing×policy×load sweep table — byte-compared
# against its golden and SHA-256-pinned at two seeds, plus the
# -parallel 1 vs 8 byte-identity check, and retail cluster -metrics-out
# re-running the swept workload. cluster-golden rewrites both
# goldens after an intentional change.
cluster-check:
	$(GO) test -count=1 -run 'TestDispatcher|TestNewDispatcher|TestRoundRobinDispatch|TestLeastLoadedDispatch|TestGlobalJSQDispatch|TestPowerOfTwoDispatch' ./internal/policy
	$(GO) test -count=1 -run 'TestRunFleet' ./internal/cluster
	$(GO) test -count=1 -run 'TestFleetSweep' ./internal/experiments
	$(GO) test -count=1 -run 'TestMetricsSnapshot' ./cmd/retail

cluster-golden:
	$(GO) test -run 'TestFleetSweep(Golden|MultiSeedSHA)' -count=1 ./internal/experiments -update

# The observability plane's gate (DESIGN.md §12): a seeded fleet sweep's
# canonical report must match the committed golden byte-for-byte
# (provenance masked), every joule and violation must reconcile between
# ledger and fleet result, attribution must stay a zero-alloc pure
# observer, the server must call observers at their fixed points around
# the manager (drops, hook order, decision fan-out, no attribution read
# without a sink) so that a fleet cell's artifacts do not depend on the
# order observers register in, /metrics and /debug/fleet must survive
# concurrent scrapes mid-sweep under -race, and the append-only
# benchmark history must parse against the benchjson baseline schema.
obs-check:
	$(GO) test -count=1 -run 'TestFleetReportGolden|TestFleetLedger|TestEnergyByLevelReconciles|TestRetailDecideZeroAllocWithLedger|TestGivenThreeObservers|TestGivenReTailWithNoDecisionSink' ./internal/experiments ./internal/cluster ./internal/cpu ./internal/manager
	$(GO) test -count=1 -run 'TestGiven' ./internal/server
	$(GO) test -race -count=1 -run 'TestMetricsScrapeDuringFleetSweep' ./internal/experiments
	$(GO) test -count=1 -run 'TestBenchHistorySchema|TestHistogramHDREquivalence|TestLogLinear' ./cmd/benchjson ./internal/telemetry ./internal/stats

obs-golden:
	$(GO) test -run TestFleetReportGolden -count=1 ./internal/experiments -update

# The ServeGen-class workload gate (DESIGN.md §13): per-arrival-process
# statistical checks (mean rate, index of dispersion, diurnal phase),
# the trace v2 header schema pin, the one table over the workload-source
# rules (workload.Source and the CLIs' LoadSource), the spec, trace and
# replay-CSV parsers' fuzz seeds, and the fixed-seed cohort-spec sweep —
# its rendered table (per-spec stats, per-SLO-class latency, canonical
# trace and classed-decision SHA-256 hashes) byte-compared against the
# committed golden, plus -parallel 1 vs 8 byte-identity. Every sweep
# cell internally proves record→replay→re-record byte identity through
# the simulator and classed decision parity through the live decider.
# workload-golden rewrites the golden after an intentional change.
workload-check:
	$(GO) test -count=1 -run 'TestArrival|TestEnvelopePhase|TestSpecValidate|TestSpecClientBound|TestBuiltinSpecs|TestCohortDeterminism|TestTraceRoundTrip|TestTraceHeaderSchema|TestReadTraceHostileCount|TestSource|FuzzParseSpec|FuzzReadTrace|FuzzLoadReplayCSV' ./internal/workload
	$(GO) test -count=1 -run 'TestWorkloadSweep' ./internal/experiments

workload-golden:
	$(GO) test -run TestWorkloadSweepGolden -count=1 ./internal/experiments -update

# The policy-parameterization and digital-twin gate (DESIGN.md §14):
# params JSON round-trip bit-equality, strict unknown-field rejection,
# the zero-value→historical-default identity, pinned canonical SHAs, the
# params parser's fuzz seeds (every accepted file builds all four policies),
# search-spec enumeration contracts (grid odometer order, seeded random
# determinism, rejection surface), and the fixed-seed retail tune
# winners table byte-compared against its golden — including -parallel
# 1 vs 8 byte-identity and the exact standalone reproduction of the
# winner's scored metrics from its emitted params.json. tune-golden
# rewrites the winners golden after an intentional change.
tune-check:
	$(GO) test -count=1 -run 'TestParams|TestMonitorGuardBand|TestQuantileFallback|FuzzParseParams' ./internal/policy
	$(GO) test -count=1 -run 'TestSpec|TestTune|FuzzSearchSpec' ./internal/tune

tune-golden:
	$(GO) test -run TestTuneGolden -count=1 ./internal/tune -update

smoke:
	$(GO) test -run TestSmoke -v .

check: build vet test

clean:
	$(GO) clean ./...
