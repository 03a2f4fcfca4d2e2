package main

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"retail/internal/experiments"
	"retail/internal/obs"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// TestValidateFlags is the one table of every subcommand's up-front flag
// validation: each misconfiguration must fail as a usage error (exit 2)
// before any calibration, with a message naming the offending flag, and
// each valid invocation must get through to the run. Only the flags are
// bound and parsed here; no subcommand body runs.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		cmd, name string
		args      []string
		wantErr   string // substring; empty means must succeed
	}{
		// The wall-clock runtime: -sysfs needs one valid core per worker.
		{"live", "defaults", nil, ""},
		{"live", "unknown app", []string{"-app", "nope"}, `unknown -app "nope"`},
		{"live", "unknown policy", []string{"-policy", "nope"}, `unknown -policy "nope"`},
		{"live", "baseline policy ok", []string{"-policy", "rubik"}, ""},
		{"live", "empty policy defaults", []string{"-policy", ""}, ""},
		{"live", "zero rps is serve-only", []string{"-rps", "0"}, ""},
		{"live", "negative rps", []string{"-rps", "-1"}, "-rps"},
		{"live", "negative duration", []string{"-duration", "-1s"}, "-duration"},
		{"live", "zero workers", []string{"-workers", "0"}, "-workers"},
		{"live", "zero scale", []string{"-scale", "0"}, "-scale"},
		{"live", "cores without sysfs", []string{"-cores", "2,3"}, "-cores is only meaningful with -sysfs"},
		{"live", "sysfs without cores", []string{"-sysfs"}, "-sysfs requires -cores"},
		{"live", "sysfs bad core entry", []string{"-sysfs", "-cores", "2,x"}, `bad -cores entry "x"`},
		{"live", "sysfs negative core", []string{"-sysfs", "-cores", "2,-1"}, "non-negative"},
		{"live", "sysfs too few cores", []string{"-sysfs", "-workers", "3", "-cores", "2,3"}, "each worker needs its own core"},
		{"live", "sysfs ok", []string{"-sysfs", "-cores", " 2 , 3 "}, ""},
		{"live", "unknown fault plan", []string{"-fault-plan", "nope"}, "nope"},

		{"sim", "defaults", nil, ""},
		{"sim", "unknown app", []string{"-app", "nope"}, `unknown -app "nope"`},
		{"sim", "negative rps", []string{"-rps", "-5"}, "-rps"},
		{"sim", "no load without rps", []string{"-load", "0"}, "-load"},
		{"sim", "zero samples", []string{"-samples", "0"}, "-samples"},
		{"sim", "negative duration", []string{"-duration", "-1"}, "-duration"},
		{"sim", "trace-cap without trace", []string{"-trace-cap", "8"}, "-trace-cap is only meaningful with -trace"},
		{"sim", "trace-sample without trace", []string{"-trace-sample", "2"}, "-trace-sample is only meaningful with -trace"},
		{"sim", "bad trace format", []string{"-trace", "t.json", "-trace-format", "svg"}, "-trace-format"},
		{"sim", "trace ok", []string{"-trace", "t.json", "-trace-cap", "8", "-trace-sample", "2"}, ""},
		{"sim", "spec and replay", []string{"-spec", "slo-mix", "-replay", "t.trace"}, "mutually exclusive"},
		{"sim", "record without spec", []string{"-record", "t.trace"}, "record requires a spec"},
		{"sim", "spec ok", []string{"-spec", "slo-mix", "-record", "t.trace"}, ""},
		{"sim", "missing params file", []string{"-params", "does-not-exist.json"}, "does-not-exist.json"},
		{"sim", "stray argument", []string{"-workers", "4", "2"}, `unexpected argument "2"`},
		{"sim", "unknown flag", []string{"-nope"}, "-nope"},
		{"sim", "unknown manager", []string{"-manager", "bogus"}, `unknown -manager "bogus"`},
		{"sim", "baseline manager ok", []string{"-manager", "maxfreq"}, ""},
		{"sim", "policy manager ok", []string{"-manager", "eetl"}, ""},

		// A load ≤ 0 or malformed fails here, not after calibration.
		{"cluster", "defaults", nil, ""},
		{"cluster", "negative load", []string{"-loads", "-1"}, "-loads"},
		{"cluster", "zero load", []string{"-loads", "0.5,0"}, "-loads"},
		{"cluster", "malformed load", []string{"-loads", "0.5,x"}, "-loads"},
		{"cluster", "loads ok", []string{"-loads", "0.4, 0.8"}, ""},
		{"cluster", "negative parallel", []string{"-parallel", "-1"}, "-parallel"},
		{"cluster", "zero workers", []string{"-workers", "0"}, "-workers"},
		// Dispatcher and policy names fail here too, naming the flag.
		{"cluster", "unknown policy", []string{"-policies", "retail,bogus"}, `unknown -policies entry "bogus"`},
		{"cluster", "unknown dispatcher", []string{"-dispatchers", "nope"}, `unknown -dispatchers entry "nope"`},
		{"cluster", "names ok", []string{"-policies", "retail,eetl", "-dispatchers", "global-jsq,weighted"}, ""},

		// -sim runs a fixed matrix, so the live runtime's flags set
		// explicitly beside it are errors rather than ignored.
		{"chaos", "defaults", nil, ""},
		{"chaos", "sim", []string{"-sim", "-seed", "7", "-params", ""}, ""},
		{"chaos", "sim bursty", []string{"-sim", "-bursty"}, ""},
		{"chaos", "bursty without sim", []string{"-bursty"}, "-bursty is only meaningful with -sim"},
		{"chaos", "unknown plan", []string{"-plan", "nope"}, "nope"},
		{"chaos", "sim with plan", []string{"-sim", "-plan", "dvfs-flaky"}, "-plan is only meaningful with the live runtime"},
		{"chaos", "sim with app", []string{"-sim", "-app", "xapian"}, "-app is only meaningful with the live runtime"},
		{"chaos", "sim with workers", []string{"-sim", "-workers", "4"}, "-workers is only meaningful with the live runtime"},
		{"chaos", "sim with rps", []string{"-sim", "-rps", "10"}, "-rps is only meaningful with the live runtime"},
		{"chaos", "sim with seconds", []string{"-sim", "-seconds", "4"}, "-seconds is only meaningful with the live runtime"},
		{"chaos", "sim with scale", []string{"-sim", "-scale", "0.5"}, "-scale is only meaningful with the live runtime"},
		{"chaos", "sim with samples", []string{"-sim", "-samples", "200"}, "-samples is only meaningful with the live runtime"},
		{"chaos", "sim with metrics", []string{"-sim", "-metrics"}, "-metrics is only meaningful with the live runtime"},

		// Every -exp id must name a runner (or be all) before any runs.
		{"bench", "defaults", nil, ""},
		{"bench", "unknown experiment", []string{"-exp", "fig99", "-quick"}, `unknown -exp id "fig99"`},
		{"bench", "unknown experiment in a list", []string{"-exp", "fig11,fig99"}, `unknown -exp id "fig99"`},
		{"bench", "list of experiments", []string{"-exp", "fig11, fig12"}, ""},
		{"bench", "features is characterize's", []string{"-exp", "features"}, `unknown -exp id "features"`},

		{"tune", "trace and search required", []string{"-trace", "t.trace"}, "-trace and -search are required"},
		{"tune", "fields alone", []string{"-fields"}, ""},
		{"tune", "missing search file", []string{"-trace", "t.trace", "-search", "does-not-exist.json"}, "does-not-exist.json"},

		{"loadgen", "no target", nil, "need -addr or -selfhost"},
		{"loadgen", "selfhost", []string{"-selfhost"}, ""},
		{"loadgen", "replay with record", []string{"-selfhost", "-replay", "a.trace", "-record", "b.trace"}, "record requires a spec"},

		{"characterize", "quick", []string{"-quick", "-seed", "1"}, ""},
		{"characterize", "no parallel", []string{"-parallel", "2"}, "-parallel"},
	}
	for _, tc := range cases {
		t.Run(tc.cmd+"/"+tc.name, func(t *testing.T) {
			i := slices.IndexFunc(commands, func(c command) bool { return c.name == tc.cmd })
			f := newFlags(tc.cmd)
			commands[i].bind(f)
			err := f.parse(tc.args)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
			if !errors.As(err, new(usageError)) {
				t.Fatalf("error %q is not a usage error", err)
			}
		})
	}
	if cores, err := parseCores(" 2 , 3 ", 2); err != nil || !slices.Equal(cores, []int{2, 3}) {
		t.Fatalf("parseCores = %v, %v; want [2 3]", cores, err)
	}
}

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
