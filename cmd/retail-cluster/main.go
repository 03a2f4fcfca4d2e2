// Command retail-cluster runs the fleet-scale routing×policy×load sweep:
// N nodes, each with its own server and per-node DVFS policy, behind a
// pluggable cross-node dispatcher, all on one deterministic event engine.
//
// Usage:
//
//	retail-cluster                                # 100-node default sweep (≥1M requests)
//	retail-cluster -quick                         # CI-sized smoke
//	retail-cluster -nodes 32 -dispatchers power-of-two,global-jsq -policies retail
//	retail-cluster -per-node                      # per-node tables per cell
//	retail-cluster -csv out/                      # raw grid CSV
//	retail-cluster -metrics-out metrics.prom      # telemetry snapshot of the last cell
//	retail-cluster -tiers xapian,silo             # multi-tier budget allocation report
//	retail-cluster -quick -report report.json     # versioned run report with per-node energy×QoS ledger
//
// The default run drives ≥1M requests: 16 cells (4 dispatchers × 4 node
// policies) × 70000 requests each. Output is deterministic — byte-identical
// at every -parallel setting — and the same tables are golden-checked by
// `make cluster-check`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"retail/internal/cluster"
	"retail/internal/experiments"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

func main() {
	var (
		app         = flag.String("app", "xapian", "application every node serves")
		nodes       = flag.Int("nodes", 100, "fleet size (nodes per cell)")
		workers     = flag.Int("workers", 4, "cores per node")
		dispatchers = flag.String("dispatchers", "", "comma-separated routing rules (default: all four)")
		policies    = flag.String("policies", "", "comma-separated per-node DVFS policies (default: retail,rubik,gemini,eetl)")
		loads       = flag.String("loads", "0.6", "comma-separated load fractions of fleet max")
		requests    = flag.Int("requests", 70000, "offered requests per sweep cell")
		quick       = flag.Bool("quick", false, "CI-sized fleet (4 nodes, small calibration)")
		parallel    = flag.Int("parallel", 0, "concurrent sweep cells (0 = GOMAXPROCS, 1 = sequential); results are byte-identical at any setting")
		seed        = flag.Int64("seed", 42, "root seed")
		perNode     = flag.Bool("per-node", false, "print per-node tables for every cell")
		csvDir      = flag.String("csv", "", "directory to write the raw grid CSV into")
		metricsOut  = flag.String("metrics-out", "", "file for a telemetry snapshot of the last cell re-run with per-node series")
		tiers       = flag.String("tiers", "", "comma-separated apps: print the multi-tier budget allocation report instead of sweeping")
		samples     = flag.Int("budget-samples", 0, "profiling draw per tier for -tiers (0 = allocator default)")
		report      = flag.String("report", "", "file for the versioned obs run report (attaches per-node energy×QoS ledgers and a telemetry registry to every cell)")
		specName    = flag.String("spec", "", "cohort workload spec driving every cell: a builtin name ("+strings.Join(workload.BuiltinSpecNames(), ", ")+") or a JSON file")
		recordPath  = flag.String("record", "", "record the single cell's pre-routing stream to this v2 trace file (requires -spec and a 1×1×1 sweep)")
		replayPath  = flag.String("replay", "", "replay a recorded v2 trace through the single cell instead of generating load (excludes -spec/-record)")
		paramsPath  = flag.String("params", "", "serializable policy params JSON applied to every node (empty = historical defaults)")
	)
	flag.Parse()

	params, err := policy.LoadParams(*paramsPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retail-cluster:", err)
		os.Exit(2)
	}

	if *tiers != "" {
		if err := budgetReport(strings.Split(*tiers, ","), *samples, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		return
	}

	// Resolve the workload flags before any calibration work. A spec or
	// replay trace names its own app, which must agree with an explicit
	// -app.
	appSet := false
	flag.Visit(func(f *flag.Flag) { appSet = appSet || f.Name == "app" })
	src, err := workload.LoadSource(*app, appSet, *specName, *recordPath, *replayPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retail-cluster:", err)
		os.Exit(1)
	}

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = *seed
	cfg.Parallel = *parallel
	cfg.Params = params

	opt := experiments.FleetOptions{
		App:             src.App.Name(),
		Nodes:           *nodes,
		WorkersPerNode:  *workers,
		Loads:           splitFloats(*loads),
		RequestsPerCell: *requests,
	}
	if *quick {
		opt.Nodes = 4
		opt.WorkersPerNode = 2
		opt.RequestsPerCell = 2500
	}
	if *dispatchers != "" {
		opt.Dispatchers = strings.Split(*dispatchers, ",")
	}
	if *policies != "" {
		opt.Policies = strings.Split(*policies, ",")
	}
	opt.Spec = src.Spec
	opt.Record = *recordPath != ""
	opt.Replay = src.Replay
	var reg *telemetry.Registry
	if *report != "" {
		// A report wants full attribution: ledgers on every node and a
		// registry for the fleet roll-up.
		opt.Ledger = true
		reg = telemetry.NewRegistry()
		opt.Registry = reg
	}

	res, err := experiments.FleetSweep(cfg, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "retail-cluster:", err)
		os.Exit(1)
	}
	fmt.Print(res.Render())

	if res.Recorded != nil {
		res.Recorded.Header.Provenance = obs.CollectProvenance()
		if err := res.Recorded.WriteFile(*recordPath); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		sha, err := res.Recorded.SHA()
		if err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("\nrecorded %s (%d records, sha256 %s)\n", *recordPath, len(res.Recorded.Records), sha)
	}
	if *perNode {
		for _, c := range res.Cells {
			fmt.Printf("\nper-node: load=%.2f %s/%s\n", c.Load, c.Dispatcher, c.Policy)
			fmt.Print(renderPerNode(c.Result))
		}
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		path := filepath.Join(*csvDir, "fleet_sweep.csv")
		if err := writeFile(path, res.CSV); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	if *metricsOut != "" {
		reg, err := metricsSnapshot(cfg, opt, res)
		if err == nil {
			err = writeFile(*metricsOut, reg.WriteText)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *metricsOut)
	}
	if *report != "" {
		rep := res.Report(*seed, obs.RollupRegistry(reg))
		if err := rep.WriteFile(*report); err != nil {
			fmt.Fprintln(os.Stderr, "retail-cluster:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (report v%d, config %s)\n", *report, rep.Version, rep.ConfigHash)
	}
}

// budgetReport is the satellite surface for AllocateBudgets: profile the
// named tiers, split an end-to-end QoS across them, and print the
// profiled tails next to the budgets they earned.
func budgetReport(appNames []string, samples int, seed int64) error {
	var ts []*cluster.Tier
	var qosSum sim.Duration
	for _, name := range appNames {
		app := workload.ByName(strings.TrimSpace(name))
		if app == nil {
			return fmt.Errorf("unknown app %q", name)
		}
		ts = append(ts, &cluster.Tier{App: app, Workers: 4})
		qosSum += app.QoS().Latency
	}
	qos := workload.QoS{Latency: qosSum, Percentile: 99}
	profiled, err := cluster.AllocateBudgets(qos, ts, 0.1, samples, seed)
	if err != nil {
		return err
	}
	if samples <= 0 {
		samples = cluster.DefaultBudgetSamples
	}
	fmt.Printf("budget allocation: end-to-end p%.0f ≤ %v across %d tiers (%d samples/tier, 10%% margin)\n\n",
		qos.Percentile, qos.Latency, len(ts), samples)
	fmt.Printf("%-10s  %-12s  %-12s  %s\n", "tier", "profiled p95", "budget", "share")
	for i, t := range ts {
		fmt.Printf("%-10s  %-12v  %-12v  %.1f%%\n", t.App.Name(), profiled[i], t.Budget,
			100*float64(t.Budget)/float64(qos.Latency))
	}
	return nil
}

// renderPerNode prints one fleet cell's per-node breakdown.
func renderPerNode(r *cluster.FleetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-5s  %-9s  %-7s  %-4s  %-10s  %-8s  %-7s  %s\n",
		"node", "completed", "dropped", "viol", "p99", "energy_J", "power_W", "meanLvl")
	for _, n := range r.PerNode {
		fmt.Fprintf(&b, "%-5d  %-9d  %-7d  %-4d  %-10v  %-8.2f  %-7.2f  %.2f\n",
			n.Node, n.Completed, n.Dropped, n.Violations, sim.Time(n.P99),
			n.EnergyJ, n.AvgPowerW, n.MeanServedLevel())
	}
	return b.String()
}

// metricsSnapshot re-runs the sweep's last cell, on the same workload
// source, with a telemetry registry attached (per-node series under the
// standard metric families) and returns the registry.
func metricsSnapshot(cfg experiments.Config, opt experiments.FleetOptions, res *experiments.FleetSweepResult) (*telemetry.Registry, error) {
	if len(res.Cells) == 0 {
		return nil, fmt.Errorf("no cells to snapshot")
	}
	cell := res.Cells[len(res.Cells)-1]
	opt.Loads, opt.Dispatchers, opt.Policies = []float64{cell.Load}, []string{cell.Dispatcher}, []string{cell.Policy}
	opt.Record, opt.Ledger = false, false
	opt.Registry = telemetry.NewRegistry()
	_, err := experiments.FleetSweep(cfg, opt)
	return opt.Registry, err
}

// writeFile creates path, lets write fill it and reports the first error,
// Close's included.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func splitFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "retail-cluster: bad load %q: %v\n", part, err)
			os.Exit(1)
		}
		out = append(out, v)
	}
	return out
}
