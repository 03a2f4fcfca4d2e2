package fault

import (
	"fmt"
	"sort"
)

// The named plans replayed by retail chaos, make chaos-check and the
// nightly chaos workflow. Timelines are written for a canonical
// 10-second scenario (warmup ends ≈ 2 s in); use Plan.Scaled to compress
// them to a test's wall-clock budget.
//
// Every plan has a defined recovery (DESIGN.md §9):
//
//	dvfs-flaky      → bounded retry-with-backoff, then pin-at-max-frequency
//	overload-burst  → admission control sheds what cannot meet QoS′;
//	                  clients retry with jittered backoff
//	drift-step      → drift detector trips, online retrain restores RMSE
//	exec-stall      → deadline timeouts drop requests that already lost;
//	                  QoS′ tightens to absorb the rest
//	predictor-skew  → drift detector sees the inflated error and retrains
func builtinPlans() []*Plan {
	return []*Plan{
		{
			Name:        "dvfs-flaky",
			Description: "DVFS writes fail with EIO/EPERM/partial-write 50% of the time in a 3s window",
			Sites: []SitePlan{{
				Site:        SiteDVFSWrite,
				Kinds:       []Kind{KindEIO, KindEPERM, KindPartialWrite},
				Probability: 0.5,
				From:        3, Until: 6,
			}},
		},
		{
			Name:        "overload-burst",
			Description: "arrival rate triples for 2s while 5% of executions take a 2ms latency spike",
			Sites: []SitePlan{{
				Site:        SiteExec,
				Kinds:       []Kind{KindLatencySpike},
				Probability: 0.05,
				From:        3, Until: 5,
				Magnitude: 2e-3,
			}},
			Burst: &Burst{From: 3, Until: 5, Factor: 3},
		},
		{
			Name:        "drift-step",
			Description: "intrinsic service times inflate ×1.6 at t=3s and stay inflated (recovery = retrain)",
			Drift:       &Drift{At: 3, Factor: 1.6},
		},
		{
			Name:        "exec-stall",
			Description: "1% of executions stall for 25ms (wedged worker / long interrupt)",
			Sites: []SitePlan{{
				Site:        SiteExec,
				Kinds:       []Kind{KindStall},
				Probability: 0.01,
				Magnitude:   25e-3,
			}},
		},
		{
			Name:        "predictor-skew",
			Description: "predictor output is multiplied ×0.25 on 40% of queries in a 3s window (under-prediction, the dangerous direction)",
			Sites: []SitePlan{{
				Site:        SitePredict,
				Kinds:       []Kind{KindCorrupt},
				Probability: 0.4,
				From:        3, Until: 6,
				Magnitude: 0.25,
			}},
		},
	}
}

// PlanByName returns the named built-in plan.
func PlanByName(name string) (*Plan, error) {
	for _, p := range builtinPlans() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fault: unknown plan %q (have %v)", name, PlanNames())
}

// PlanNames lists the built-in plans in sorted order.
func PlanNames() []string {
	ps := builtinPlans()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	sort.Strings(names)
	return names
}

// Plans returns every built-in plan in name-sorted order.
func Plans() []*Plan {
	ps := builtinPlans()
	sort.Slice(ps, func(i, j int) bool { return ps[i].Name < ps[j].Name })
	return ps
}
