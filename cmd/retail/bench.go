package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"retail/internal/experiments"
	"retail/internal/trace"
)

// bindBench is `retail bench`, which regenerates the paper's tables and
// figures.
//
//	retail bench -list
//	retail bench -exp fig11 -apps xapian,moses
//	retail bench -exp all -quick
//
// Each experiment prints the same rows/series the paper reports. The
// default (non -quick) configuration uses the paper's resolution: 20
// workers, 1000 calibration samples per frequency, loads 10%–100% in 10%
// steps. -quick shrinks everything for a fast smoke pass.
func bindBench(f *cmdFlags) func() error {
	f.quickFlag()
	f.seedFlag(42)
	f.parallelFlag()
	var (
		expFlag  = f.String("exp", "all", "comma-separated experiment ids, or 'all'")
		appsFlag = f.String("apps", "", "comma-separated apps for fig11/fig12/ablation/spike/overhead (default: each experiment's own)")
		list     = f.Bool("list", false, "list experiments and exit")
		csvDir   = f.String("csv", "", "directory to write per-experiment CSV files into")
		traceDir = f.String("trace-dir", "", "directory to write Perfetto-viewable span traces for trace-capable experiments (spike, fig14)")

		runners = experimentRunners()
		picked  []runner
		apps    []string
	)
	f.check(func() (err error) {
		picked, err = pick(runners, strings.Split(*expFlag, ","))
		return err
	})
	f.check(func() error {
		if *appsFlag == "" {
			return nil
		}
		for _, a := range strings.Split(*appsFlag, ",") {
			apps = append(apps, strings.TrimSpace(a))
		}
		return knownNames("apps", strings.Join(apps, ","), experiments.AppNames())
	})

	return func() error {
		if *list {
			for _, r := range runners {
				fmt.Printf("  %-9s %s\n", r.name, r.desc)
			}
			return nil
		}
		cfg := f.config()
		cfg.Trace = *traceDir != ""
		return runExperiments(cfg, picked, apps, *csvDir, *traceDir)
	}
}

// A runner is one experiment. run returns its results in print order.
type runner struct {
	name, desc string
	run        func(cfg experiments.Config, apps []string) ([]result, error)
}

// result is one rendered experiment result; stem names the files -csv
// and -trace-dir write for it, when it offers CSV or carries a trace.
type result struct {
	stem, text string
	res        any
}

type renderer interface{ Render() string }

// one adapts a whole-config experiment, naming its files after the
// result type (*experiments.Fig1Result: fig1).
func one[R renderer](fn func(experiments.Config) (R, error)) func(experiments.Config, []string) ([]result, error) {
	return func(cfg experiments.Config, _ []string) ([]result, error) {
		r, err := fn(cfg)
		if err != nil {
			return nil, err
		}
		stem := strings.TrimSuffix(strings.TrimPrefix(fmt.Sprintf("%T", r), "*experiments."), "Result")
		return []result{{strings.ToLower(stem), r.Render(), r}}, nil
	}
}

// each runs a one-app experiment per app (defaults when none are given),
// naming each result's files stem_app and ending its text with sep.
func each[R renderer](stem, sep string, defaults []string, fn func(experiments.Config, string) (R, error)) func(experiments.Config, []string) ([]result, error) {
	return func(cfg experiments.Config, apps []string) ([]result, error) {
		if len(apps) == 0 {
			apps = defaults
		}
		var rs []result
		for _, a := range apps {
			r, err := fn(cfg, a)
			if err != nil {
				return nil, err
			}
			rs = append(rs, result{stem + "_" + a, r.Render() + sep, r})
		}
		return rs, nil
	}
}

// experimentRunners is bench's table, in -list and -exp all order.
func experimentRunners() []runner {
	return []runner{
		{"fig1", "ImgDNN service vs sojourn time across RPS", one(experiments.Fig1)},
		{"fig2", "service-time CDFs and Table II ratios", one(experiments.Fig2)},
		{"fig3", "request-length interpretations vs service time", one(experiments.Fig3)},
		{"fig4", "per-TPC-C-type service CDFs (Shore/Silo)", one(experiments.Fig4)},
		{"fig5", "application features vs service time", one(experiments.Fig5)},
		{"fig6", "application-feature lateness", one(experiments.Fig6)},
		{"table4", "LR vs NN-G vs NN-T overhead/accuracy", one(experiments.TableIV)},
		{"fig8", "Xapian fit curves (LR line vs NN wiggle)", one(experiments.Fig8)},
		{"fig9", "R² vs training-set size", one(experiments.Fig9)},
		{"fig11", "power / drops / tails sweep + Table V (per app)",
			func(cfg experiments.Config, apps []string) ([]result, error) {
				r, err := experiments.Fig11(cfg, apps)
				if err != nil {
					return nil, err
				}
				return []result{{"fig11", r.Render(), r}}, nil
			}},
		{"fig12", "ReTail decomposition (feature space × mechanism)", each("fig12", "\n", []string{"xapian", "shore"}, experiments.Fig12)},
		{"fig13", "PARTIES + ReTail colocation timeline", one(experiments.Fig13)},
		{"fig14", "model drift, retraining and recovery timeline", one(experiments.Fig14)},
		{"ablation", "ReTail design-choice ablations (monitor, queue awareness, per-frequency models, stage-1 split)",
			each("ablation", "\n", []string{"moses", "xapian"}, experiments.Ablation)},
		{"spike", "load-spike response: QoS′ collapse and recovery",
			func(cfg experiments.Config, apps []string) ([]result, error) {
				if len(apps) == 0 {
					apps = []string{"xapian"}
				}
				spikes, err := experiments.LoadSpikes(cfg, apps)
				var rs []result
				for i, r := range spikes {
					rs = append(rs, result{"spike_" + apps[i], r.Render(), r})
				}
				return rs, err
			}},
		{"overhead", "§VII-F decision/transition overhead accounting", each("overhead", "", []string{"xapian"}, experiments.Overhead)},
	}
}

// pick returns the runners ids name, in table order; "all" names every
// one. An unknown id is an error listing the valid ones.
func pick(table []runner, ids []string) ([]runner, error) {
	valid := []string{"all"}
	for _, r := range table {
		valid = append(valid, r.name)
	}
	want := map[string]bool{}
	for _, id := range ids {
		if id = strings.TrimSpace(id); !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown -exp id %q (valid: %s)", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var out []runner
	for _, r := range table {
		if want["all"] || want[r.name] {
			out = append(out, r)
		}
	}
	return out, nil
}

// runExperiments runs each runner under cfg and prints its results under
// a "==== name" header. It then writes, in stem order, each result's CSV
// into csvDir and its span trace into traceDir, when the directory is
// set. A failure is reported on stderr and the remaining runners still
// run.
func runExperiments(cfg experiments.Config, rs []runner, apps []string, csvDir, traceDir string) error {
	failed := false
	for _, r := range rs {
		start := time.Now()
		results, err := r.run(cfg, apps)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.name, err)
			failed = true
			continue
		}
		var text strings.Builder
		for _, res := range results {
			text.WriteString(res.text)
		}
		fmt.Printf("==== %s (%s) [%s]\n%s\n", r.name, r.desc, time.Since(start).Round(time.Millisecond), text.String())
		slices.SortFunc(results, func(a, b result) int { return strings.Compare(a.stem, b.stem) })
		var csvs, traces []artifact
		for _, res := range results {
			if e, ok := res.res.(experiments.CSVExportable); ok && csvDir != "" {
				csvs = append(csvs, artifact{filepath.Join(csvDir, res.stem+".csv"), "", e.CSV})
			}
			if tc, ok := res.res.(interface{ FlightRecorder() *trace.FlightRecorder }); ok && traceDir != "" && tc.FlightRecorder() != nil {
				st := tc.FlightRecorder().Stats()
				traces = append(traces, artifact{filepath.Join(traceDir, res.stem+".trace.json"),
					fmt.Sprintf(" (%d spans, %d violations)", st.Kept, st.Violations), tc.FlightRecorder().WriteChrome})
			}
		}
		for _, a := range append(csvs, traces...) {
			err := os.MkdirAll(filepath.Dir(a.path), 0o755)
			if err == nil {
				err = writeFile(a.path, a.write)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", a.path, err)
				failed = true
				continue
			}
			fmt.Printf("  wrote %s%s\n", a.path, a.note)
		}
	}
	if failed {
		return errors.New("some experiments failed")
	}
	return nil
}

type artifact struct {
	path, note string
	write      func(io.Writer) error
}
