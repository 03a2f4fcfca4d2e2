package main

import (
	"testing"

	"retail/internal/experiments"
	"retail/internal/obs"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// TestMetricsSnapshotRunsTheSweptSource: -metrics-out re-runs the last
// cell on the workload the sweep ran. On a -spec sweep, the snapshot's
// fleet roll-up must equal the telemetry the sweep's own cell produced.
func TestMetricsSnapshotRunsTheSweptSource(t *testing.T) {
	cfg := experiments.Quick()
	cfg.SamplesPerLevel = 200
	cfg.Seed = 42
	opt := experiments.FleetOptions{
		Nodes: 2, WorkersPerNode: 2, RequestsPerCell: 800,
		Loads: []float64{0.5}, Dispatchers: []string{"round-robin"}, Policies: []string{"retail"},
		Spec:     workload.BuiltinSpec("slo-mix"),
		Registry: telemetry.NewRegistry(),
	}
	res, err := experiments.FleetSweep(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	swept := obs.RollupRegistry(opt.Registry)
	opt.Registry = nil
	reg, err := metricsSnapshot(cfg, opt, res)
	if err != nil {
		t.Fatal(err)
	}
	snap := obs.RollupRegistry(reg)
	if len(swept) != 1 || len(snap) != 1 || swept[0] != snap[0] {
		t.Fatalf("snapshot roll-up %+v, sweep's %+v", snap, swept)
	}
	if swept[0].Completed == 0 {
		t.Fatal("the sweep completed nothing")
	}
}
