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
#                        smoke; speed itself is measured by bench/)
#   make bench-e2e       the bench/ harness end to end (BENCHMARK.json's
#                        command): five workloads, untraced pass, one JSON
#                        document under .bench_build/
#   make golden-check    the nine tests that compare fixed-seed output with
#                        a committed golden under testdata/ (trace, tune,
#                        chaos, fleet sweep, parity, report, steady
#                        figures, workload sweep)
#   make golden-update   rewrite those goldens after an intentional change
#   make smoke   build-and-run every example and command briefly
#   make check   build + vet + test (the pre-commit bundle)

GO ?= go

# The hot-path micro-benchmarks: the event loop (freelist; the calendar
# queue on the simulator's own bimodal event population), Algorithm 1
# decisions (per-request prediction slots), the per-completion latency
# recorder (ring window), Gemini's network (batch-major training on AVX
# kernels, forward pass, one pass per request into its prediction slot),
# the small NN shapes' training (where a kernel call's fixed cost weighs
# most), the live wire codec (each direction beside the encoding/json
# call it stands in for), the sweep runner and the fleet simulator.
# bench-check runs each exactly once under the race detector — a
# correctness smoke, not a measurement. Speed is bench/'s to measure
# (BENCHMARK.json); the fleet's allocations per request are held by
# TestRunFleetAllocsPerRequest in internal/cluster.
HOT_BENCH = 'Benchmark(Engine(AfterFire|ScheduleCancel)|RetailDecide|GeminiStart|LatencyTrackerAdd|NNFit(Gemini|Tuned)|InferenceGemini|Wire(RequestDecode|ResponseEncode)|Sweep|Cluster)|BenchmarkQueue/calendar/fleetShape'
HOT_PKGS  = ./internal/sim ./internal/manager ./internal/stats ./internal/nn ./internal/live ./internal/experiments ./internal/cluster

.PHONY: build test race vet linkcheck portable-check bench bench-check bench-e2e golden-check golden-update smoke check clean

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
	$(GO) test -bench 'Benchmark(Counter|Gauge|Histogram|Snapshot)' -benchmem -run '^$$' ./internal/telemetry
	$(GO) test -bench . -benchmem -benchtime 1x -run '^$$' .

bench-check:
	$(GO) test -race -run '^$$' -bench $(HOT_BENCH) -benchtime=1x $(HOT_PKGS)

# The end-to-end harness exactly as BENCHMARK.json's driver runs it:
# every workload in fresh child processes, untraced, seed 1. The document
# lands under .bench_build/ (git-ignored); compare two of them with
# `bash bench/run.sh -compare a.json b.json`.
bench-e2e:
	bash bench/run.sh -seed 1 -trace 0 -out .bench_build/e2e.json

# Every test that compares fixed-seed output with a committed golden under
# a testdata/ directory: the Chrome trace bytes, the tune winners table,
# the simulator chaos matrix, the fleet sweep table and its multi-seed
# SHA-256, the replay-parity decision stream, the canonical fleet report,
# the steady-state figures and the cohort workload sweep. golden-update
# rewrites them after an intentional output change; TestGoldenTestsAreGated
# (meta_test.go) fails when a test that names a golden is missing here.
GOLDEN_TESTS = '^TestChromeTraceGolden$$|^TestTuneGolden$$|^TestChaosSimGolden$$|^TestFleetSweepGolden$$|^TestFleetSweepMultiSeedSHA$$|^TestReplayParity$$|^TestFleetReportGolden$$|^TestSteadyFiguresGolden$$|^TestWorkloadSweepGolden$$'
GOLDEN_PKGS  = ./internal/trace ./internal/tune ./internal/experiments

golden-check:
	$(GO) test -count=1 -run $(GOLDEN_TESTS) $(GOLDEN_PKGS)

golden-update:
	$(GO) test -count=1 -run $(GOLDEN_TESTS) $(GOLDEN_PKGS) -update

smoke:
	$(GO) test -run TestSmoke -v .

check: build vet test

clean:
	$(GO) clean ./...
