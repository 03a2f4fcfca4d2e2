package main

import (
	"fmt"
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

// bindCluster is `retail cluster`, the fleet-scale routing×policy×load
// sweep: N nodes, each with its own server and per-node DVFS policy,
// behind a pluggable cross-node dispatcher, all on one deterministic
// event engine.
//
//	retail cluster                                # 100-node default sweep (≥1M requests)
//	retail cluster -quick                         # CI-sized smoke
//	retail cluster -nodes 32 -dispatchers power-of-two,global-jsq -policies retail
//	retail cluster -per-node                      # per-node tables per cell
//	retail cluster -csv out/                      # raw grid CSV
//	retail cluster -metrics-out metrics.prom      # telemetry snapshot of the last cell
//	retail cluster -tiers xapian,silo             # multi-tier budget allocation report
//	retail cluster -quick -report report.json     # versioned run report with per-node energy×QoS ledger
//
// The default run drives ≥1M requests: 16 cells (4 dispatchers × 4 node
// policies) × 70000 requests each. Output is deterministic — byte-identical
// at every -parallel setting — and the same tables are golden-checked by
// `make golden-check`. -quick runs 4 nodes × 2 workers, 2500 requests a
// cell, on the Quick calibration.
func bindCluster(f *cmdFlags) func() error {
	f.appFlag("xapian")
	f.sourceFlags()
	f.seedFlag(42)
	f.workersFlag(4)
	f.quickFlag()
	f.parallelFlag()
	f.paramsFlag()
	f.reportFlag()
	var (
		nodes       = f.Int("nodes", 100, "fleet size (nodes per cell)")
		dispatchers = f.String("dispatchers", "", "comma-separated routing rules (default: all four)")
		policies    = f.String("policies", "", "comma-separated per-node DVFS policies (default: retail,rubik,gemini,eetl)")
		loadsArg    = f.String("loads", "0.6", "comma-separated load fractions of fleet max")
		requests    = f.Int("requests", 70000, "offered requests per sweep cell")
		perNode     = f.Bool("per-node", false, "print per-node tables for every cell")
		csvDir      = f.String("csv", "", "directory to write the raw grid CSV into")
		metricsOut  = f.String("metrics-out", "", "file for a telemetry snapshot of the last cell re-run with per-node series")
		tiers       = f.String("tiers", "", "comma-separated apps: print the multi-tier budget allocation report instead of sweeping")
		samples     = f.Int("budget-samples", 0, "profiling draw per tier for -tiers (0 = allocator default)")

		loads []float64
	)
	f.check(func() error {
		if err := knownNames("dispatchers", *dispatchers, append(policy.DispatcherNames(), "weighted")); err != nil {
			return err
		}
		if err := knownNames("policies", *policies, policy.Names()); err != nil {
			return err
		}
		for _, part := range strings.Split(*loadsArg, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || !(v > 0) {
				return fmt.Errorf("-loads: bad load %q: want a positive fraction of fleet max", part)
			}
			loads = append(loads, v)
		}
		return nil
	})

	return func() error {
		if *tiers != "" {
			return budgetReport(strings.Split(*tiers, ","), *samples, f.seed)
		}
		cfg := f.config()
		opt := experiments.FleetOptions{
			App:             f.src.App.Name(),
			Nodes:           *nodes,
			WorkersPerNode:  f.workers,
			Loads:           loads,
			RequestsPerCell: *requests,
		}
		if f.quick {
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
		opt.Spec = f.src.Spec
		opt.Record = f.record != ""
		opt.Replay = f.src.Replay
		var reg *telemetry.Registry
		if f.report != "" {
			// A report wants full attribution: ledgers on every node and a
			// registry for the fleet roll-up.
			opt.Ledger = true
			reg = telemetry.NewRegistry()
			opt.Registry = reg
		}

		res, err := experiments.FleetSweep(cfg, opt)
		if err != nil {
			return err
		}
		fmt.Print(res.Render())

		if res.Recorded != nil {
			sha, err := recordTrace(res.Recorded, f.record)
			if err != nil {
				return err
			}
			fmt.Printf("\nrecorded %s (%d records, sha256 %s)\n", f.record, len(res.Recorded.Records), sha)
		}
		if *perNode {
			for _, c := range res.Cells {
				fmt.Printf("\nper-node: load=%.2f %s/%s\n", c.Load, c.Dispatcher, c.Policy)
				fmt.Print(renderPerNode(c.Result))
			}
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, "fleet_sweep.csv")
			err := os.MkdirAll(*csvDir, 0o755)
			if err == nil {
				err = writeFile(path, res.CSV)
			}
			if err != nil {
				return err
			}
			fmt.Printf("\nwrote %s\n", path)
		}
		if *metricsOut != "" {
			reg, err := metricsSnapshot(cfg, opt, res)
			if err == nil {
				err = writeFile(*metricsOut, reg.WriteText)
			}
			if err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *metricsOut)
		}
		if f.report == "" {
			return nil
		}
		return writeReport(res.Report(f.seed, obs.RollupRegistry(reg)), f.report, "wrote %s (report v%d, config %s)\n")
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
