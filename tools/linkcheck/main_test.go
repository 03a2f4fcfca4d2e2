package main

import "testing"

func TestSymbolKey(t *testing.T) {
	for sym, want := range map[string]string{
		"retail/internal/stats.Mean":                                        "retail/internal/stats.Mean",
		"retail/internal/stats.(*HDR).Record":                               "retail/internal/stats.HDR.Record",
		"retail/internal/experiments.RunSweep[go.shape.*uint8]":             "retail/internal/experiments.RunSweep",
		"retail/internal/experiments.RunSweep[go.shape.struct { A int }]":   "retail/internal/experiments.RunSweep",
		"retail/internal/x.(*Set[go.shape.int]).Add":                        "retail/internal/x.Set.Add",
		"retail/internal/nn.fold4AVX.abi0":                                  "retail/internal/nn.fold4AVX",
		"retail/internal/cluster.RunFleet.func1":                            "retail/internal/cluster.RunFleet.func1",
		"retail/internal/x.F[go.shape.map[string]int,go.shape.[]float64].G": "retail/internal/x.F.G",
	} {
		if got := symbolKey(sym); got != want {
			t.Errorf("symbolKey(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestAllowed(t *testing.T) {
	for key, want := range map[string]string{
		"retail/internal/live.ReplayDecisions":      "retail/internal/live.ReplayDecisions",
		"retail/internal/live.replayPipeline.Len":   "retail/internal/live.replayPipeline",
		"retail/internal/live.replayPipelineX.Len":  "",
		"retail/internal/live.ReplayDecisionsAgain": "",
	} {
		if got := allowed(key); got != want {
			t.Errorf("allowed(%q) = %q, want %q", key, got, want)
		}
	}
}
