package main

import (
	"fmt"
	"math/rand"
	"strings"

	"retail/internal/experiments"
	"retail/internal/features"
	"retail/internal/workload"
)

// bindCharacterize is `retail characterize`, the paper's §III workload
// characterization (Figs 1–6, Table II) — service-time distributions,
// which request/application features correlate with latency, and the
// lateness of application features — followed by §IV's feature-selection
// verdict per application. It is the "look before you manage" step that
// motivates ReTail's design, run through bench's runners.
func bindCharacterize(f *cmdFlags) func() error {
	f.quickFlag()
	f.seedFlag(42)
	return func() error {
		table := map[string]runner{}
		for _, r := range experimentRunners() {
			table[r.name] = r
		}
		var rs []runner
		for _, id := range []string{"fig2", "fig1", "fig3", "fig4", "fig5", "fig6"} {
			rs = append(rs, table[id])
		}
		return runExperiments(f.config(), append(rs, featuresRunner), nil, "", "")
	}
}

// featuresRunner prints the end-to-end feature selection (§IV) for every
// application, on SamplesPerLevel draws at the config's seed.
var featuresRunner = runner{"features", "§IV feature-selection verdict per application",
	func(cfg experiments.Config, _ []string) ([]result, error) {
		lines := []string{"Feature selection (§IV) per application"}
		for _, app := range workload.All() {
			ds := features.Dataset{Specs: app.FeatureSpecs()}
			rng := rand.New(rand.NewSource(cfg.Seed))
			for i := 0; i < cfg.SamplesPerLevel; i++ {
				r := app.Generate(rng)
				ds.X = append(ds.X, r.Features)
				ds.Service = append(ds.Service, float64(r.ServiceBase))
			}
			sel, err := features.Select(ds, features.DefaultOptions())
			if err != nil {
				return nil, err
			}
			names := make([]string, 0, len(sel.Selected))
			for _, j := range sel.Selected {
				names = append(names, ds.Specs[j].Name)
			}
			lines = append(lines, fmt.Sprintf("  %-9s selected %v  (combined CD %.3f)", app.Name(), names, sel.CombinedCD))
		}
		// No final newline: runExperiments adds one after every output.
		return []result{{text: strings.Join(lines, "\n")}}, nil
	}}
