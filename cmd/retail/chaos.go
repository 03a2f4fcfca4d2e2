package main

import (
	"fmt"
	"os"

	"retail/internal/experiments"
	"retail/internal/fault"
	"retail/internal/telemetry"
)

// bindChaos is `retail chaos`: replay named fault plans against the
// ReTail runtime and print a degradation report — what was injected,
// what the recovery machinery did about it (retries, fallback pins,
// sheds, deadline drops, client retries), and whether the system came
// out healthy.
//
// Two substrates, matching the fault-site split (DESIGN.md §9):
//
//	retail chaos -plan overload-burst      # wall-clock live runtime (default)
//	retail chaos -plan dvfs-flaky -seconds 10 -scale 0.5
//	retail chaos -sim                      # deterministic simulator matrix
//	retail chaos -sim -bursty              # same matrix under overload-mmpp arrivals
//	retail chaos -list                     # show the built-in plans
//
// The simulator matrix fixes its own plans, app and scale, so the live
// runtime's flags are rejected under -sim.
func bindChaos(f *cmdFlags) func() error {
	f.appFlag("moses")
	f.seedFlag(42)
	f.workersFlag(2)
	f.samplesFlag(300)
	f.rpsFlag(60, "the live client's rate (wall clock)")
	f.paramsFlag()
	var (
		planName = f.String("plan", "overload-burst", "fault plan to replay (see -list)")
		list     = f.Bool("list", false, "list the built-in fault plans and exit")
		simAll   = f.Bool("sim", false, "run the deterministic simulator chaos matrix instead of the live runtime")
		bursty   = f.Bool("bursty", false, "with -sim: drive arrivals from the overload-mmpp cohort spec (correlated bursts)")
		seconds  = f.Float64("seconds", 10, "scenario length on the canonical plan clock")
		scale    = f.Float64("scale", 0.2, "time compression: wall seconds per canonical second")
		metrics  = f.Bool("metrics", false, "print the final Prometheus scrape after the run")

		plan *fault.Plan
	)
	f.check(func() (err error) {
		if err = f.onlyWith(*simAll, "-sim", "bursty"); err == nil {
			err = f.onlyWith(!*simAll, "the live runtime, not -sim",
				"plan", "app", "workers", "rps", "seconds", "scale", "samples", "metrics")
		}
		if err == nil && !*simAll && !*list {
			plan, err = fault.PlanByName(*planName)
		}
		return err
	})

	return func() error {
		if *list {
			for _, p := range fault.Plans() {
				fmt.Println(p)
			}
			return nil
		}
		if *simAll {
			f.quick = true // the matrix always runs at Quick scale
			run := experiments.ChaosAll
			if *bursty {
				run = experiments.ChaosAllBursty
			}
			res, err := run(f.config())
			if err != nil {
				return err
			}
			fmt.Print(res.Render())
			return nil
		}
		reg := telemetry.NewRegistry()
		rep, err := experiments.RunLiveChaos(experiments.LiveConfig{
			Plan:            plan,
			App:             f.src.App,
			Workers:         f.workers,
			RPS:             f.rps,
			Seconds:         *seconds,
			TimeScale:       *scale,
			SamplesPerLevel: f.samples,
			Seed:            f.seed,
			Params:          f.params,
			Registry:        reg,
		})
		if err != nil {
			return err
		}
		fmt.Print(rep.Render())
		if !*metrics {
			return nil
		}
		fmt.Println()
		if err := reg.WriteText(os.Stdout); err != nil {
			return fmt.Errorf("scrape: %w", err)
		}
		return nil
	}
}
