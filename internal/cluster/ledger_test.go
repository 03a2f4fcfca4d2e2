package cluster

import (
	"math"
	"testing"

	"retail/internal/core"
	"retail/internal/sim"
	"retail/internal/workload"
)

func ledgerFleetConfig(t *testing.T, policy string, load float64) FleetConfig {
	t.Helper()
	app := workload.ByName("xapian")
	platform := core.DefaultPlatform().WithWorkers(2)
	cal, err := core.Calibrate(app, platform, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	return FleetConfig{
		Cal: cal, Nodes: 4, WorkersPerNode: 2,
		Policy: policy, Dispatcher: "power-of-two",
		RPS:    4 * load * core.CalibrateMaxLoad(app, platform, 42),
		Warmup: 1 * sim.Second, Duration: 5 * sim.Second, Seed: 42,
	}
}

// TestFleetLedgerReconciles is the acceptance criterion in test form:
// with the ledger attached, every node's completions, violations,
// residency and joules in FleetResult are exactly reproduced by summing
// the ledger's app × node × level (× cause) cells — nothing uncounted,
// nothing double-counted. Runs for both a decision-sink policy (retail)
// and one without (eetl, exercising the no-decision cause fallback).
func TestFleetLedgerReconciles(t *testing.T) {
	cases := []struct {
		policy string
		load   float64
	}{
		{"retail", 0.6},
		// EETL has no decision sink and needs near-saturation load to
		// violate at all; 0.95 exercises the no-decision cause fallback.
		{"eetl", 0.95},
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			cfg := ledgerFleetConfig(t, tc.policy, tc.load)
			cfg.Ledger = true
			res, err := RunFleet(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Ledger) != cfg.Nodes {
				t.Fatalf("ledger has %d node summaries, want %d", len(res.Ledger), cfg.Nodes)
			}
			if res.Violations == 0 || res.Completed == 0 {
				t.Fatalf("degenerate run (completed=%d violations=%d): reconciliation would be vacuous",
					res.Completed, res.Violations)
			}
			var ledgerEnergy float64
			for i, ns := range res.Ledger {
				st := res.PerNode[i]
				if ns.Node != i || ns.App != res.App {
					t.Fatalf("node %d summary mislabeled: %+v", i, ns)
				}
				completions, energy := uint64(0), ns.UncoreJ
				for _, l := range ns.Levels {
					completions += l.Completions
					energy += l.EnergyJ
				}
				if got, want := completions, uint64(st.Completed); got != want {
					t.Errorf("node %d: ledger completions %d, fleet %d", i, got, want)
				}
				if got, want := ns.Violations(), uint64(st.Violations); got != want {
					t.Errorf("node %d: ledger violations %d, fleet %d", i, got, want)
				}
				if got, want := ns.Drops, uint64(st.Dropped); got != want {
					t.Errorf("node %d: ledger drops %d, fleet %d", i, got, want)
				}
				for lvl, c := range st.Residency {
					if got := ns.Levels[lvl].Completions; got != uint64(c) {
						t.Errorf("node %d level %d: ledger %d completions, residency %d", i, lvl, got, c)
					}
				}
				if got, want := energy, st.EnergyJ; math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Errorf("node %d: ledger energy %v J, fleet %v J", i, got, want)
				}
				ledgerEnergy += energy
			}
			if math.Abs(ledgerEnergy-res.EnergyJ) > 1e-9*math.Max(1, res.EnergyJ) {
				t.Errorf("fleet: ledger energy %v J, result %v J", ledgerEnergy, res.EnergyJ)
			}
		})
	}
}

// TestFleetLedgerPureObserver pins that attaching the ledger changes no
// simulated behavior: the run with attribution on reproduces the run
// with it off, down to the placement stream.
func TestFleetLedgerPureObserver(t *testing.T) {
	run := func(ledger bool) *FleetResult {
		cfg := ledgerFleetConfig(t, "retail", 0.6)
		cfg.Ledger = ledger
		res, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off, on := run(false), run(true)
	if off.PlacementHash != on.PlacementHash || off.Routed != on.Routed {
		t.Fatalf("ledger perturbed routing: %016x/%d vs %016x/%d",
			off.PlacementHash, off.Routed, on.PlacementHash, on.Routed)
	}
	if off.Completed != on.Completed || off.Violations != on.Violations ||
		off.Dropped != on.Dropped || off.EnergyJ != on.EnergyJ || off.P99 != on.P99 {
		t.Fatalf("ledger perturbed results:\n off: %+v\n on:  %+v", off, on)
	}
}
