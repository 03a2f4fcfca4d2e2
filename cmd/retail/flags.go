package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"retail/internal/experiments"
	"retail/internal/nn"
	"retail/internal/obs"
	"retail/internal/policy"
	"retail/internal/workload"
)

// usageError is a bad invocation, which exits 2 rather than 1.
type usageError struct{ error }

// cmdFlags is one subcommand's flag set. A flag that several subcommands
// share is declared only by one of the methods below, which takes the
// subcommand's default and installs the flag's validation; parse runs
// every validation once all arguments are read, before the subcommand
// does any work.
type cmdFlags struct {
	*flag.FlagSet
	checks []func() error

	app                  string
	spec, record, replay string
	src                  workload.Source // -app with -spec/-record/-replay, resolved by parse
	seed                 int64
	paramsPath           string
	params               policy.Params // -params, loaded by parse
	report               string
	parallel             int
	quick, quickNN       bool
	workers, samples     int
	rps                  float64
}

// newFlags returns a subcommand's empty flag set. It prints nothing
// itself: run reports every error and prints the usage text for -h.
func newFlags(name string) *cmdFlags {
	f := &cmdFlags{FlagSet: flag.NewFlagSet("retail "+name, flag.ContinueOnError)}
	f.SetOutput(io.Discard)
	return f
}

// check adds a validation for parse to run; its error is a usage error.
func (f *cmdFlags) check(fn func() error) { f.checks = append(f.checks, fn) }

// parse reads args and then runs every check in the order they were added.
func (f *cmdFlags) parse(args []string) error {
	if err := f.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}
	if f.NArg() > 0 {
		return usageError{fmt.Errorf("unexpected argument %q", f.Arg(0))}
	}
	for _, fn := range f.checks {
		if err := fn(); err != nil {
			return usageError{err}
		}
	}
	return nil
}

// set reports whether the flag name was given on the command line.
func (f *cmdFlags) set(name string) bool {
	found := false
	f.Visit(func(fl *flag.Flag) { found = found || fl.Name == name })
	return found
}

// onlyWith rejects each of names given on the command line while cond
// does not hold: "-name is only meaningful with what".
func (f *cmdFlags) onlyWith(cond bool, what string, names ...string) error {
	for _, n := range names {
		if !cond && f.set(n) {
			return fmt.Errorf("-%s is only meaningful with %s", n, what)
		}
	}
	return nil
}

// appFlag declares -app. parse resolves it into f.src, together with
// -spec/-record/-replay when sourceFlags declared them: a spec or replay
// trace names its own app, which must agree with an -app given on the
// command line.
func (f *cmdFlags) appFlag(def string) {
	f.StringVar(&f.app, "app", def, "application: "+strings.Join(experiments.AppNames(), ", "))
	f.check(func() (err error) {
		if workload.ByName(f.app) == nil {
			return fmt.Errorf("unknown -app %q (want one of %s)", f.app, strings.Join(experiments.AppNames(), ", "))
		}
		f.src, err = workload.LoadSource(f.app, f.set("app"), f.spec, f.record, f.replay)
		return err
	})
}

// sourceFlags declares -spec, -record and -replay; appFlag's check
// resolves them.
func (f *cmdFlags) sourceFlags() {
	f.StringVar(&f.spec, "spec", "", "cohort workload spec: a builtin name ("+strings.Join(workload.BuiltinSpecNames(), ", ")+") or a JSON file")
	f.StringVar(&f.record, "record", "", "record the generated request stream to this v2 trace file (requires -spec)")
	f.StringVar(&f.replay, "replay", "", "replay a recorded v2 trace instead of generating load (excludes -spec/-record)")
}

func (f *cmdFlags) seedFlag(def int64) {
	f.Int64Var(&f.seed, "seed", def, "root seed")
}

// paramsFlag declares -params; parse loads and validates the file into
// f.params, so a malformed one fails before any calibration.
func (f *cmdFlags) paramsFlag() {
	f.StringVar(&f.paramsPath, "params", "", "serializable policy params JSON (empty = historical defaults)")
	f.check(func() (err error) {
		f.params, err = policy.LoadParams(f.paramsPath)
		return err
	})
}

func (f *cmdFlags) reportFlag() {
	f.StringVar(&f.report, "report", "", "file for the versioned obs run report")
}

func (f *cmdFlags) parallelFlag() {
	f.IntVar(&f.parallel, "parallel", 0, "concurrent runs (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any setting")
	f.check(func() error { return atLeast("parallel", f.parallel, 0) })
}

func (f *cmdFlags) quickFlag() {
	f.BoolVar(&f.quick, "quick", false, "CI-sized configuration for a fast pass")
}

// quickNNFlag declares -quick-nn; geminiNN is the network it selects:
// the Quick configuration's small one, or nil for the 5×128.
func (f *cmdFlags) quickNNFlag() {
	f.BoolVar(&f.quickNN, "quick-nn", true, "use a small NN for gemini instead of the 5×128")
}

func (f *cmdFlags) geminiNN() *nn.Config {
	if !f.quickNN {
		return nil
	}
	return experiments.Quick().GeminiNN
}

func (f *cmdFlags) workersFlag(def int) {
	f.IntVar(&f.workers, "workers", def, "worker cores (per node in a fleet, goroutines on the live runtime)")
	f.check(func() error { return atLeast("workers", f.workers, 1) })
}

func (f *cmdFlags) samplesFlag(def int) {
	f.IntVar(&f.samples, "samples", def, "calibration samples per frequency level")
	f.check(func() error { return atLeast("samples", f.samples, 1) })
}

func (f *cmdFlags) rpsFlag(def float64, meaning string) {
	f.Float64Var(&f.rps, "rps", def, "request rate in requests/s: "+meaning)
	f.check(func() error { return atLeast("rps", f.rps, 0) })
}

// knownNames checks a comma-separated -name list against valid; the
// empty list (the flag's default) passes.
func knownNames(name, list string, valid []string) error {
	if list == "" {
		return nil
	}
	for _, part := range strings.Split(list, ",") {
		if !slices.Contains(valid, part) {
			return fmt.Errorf("unknown -%s entry %q (want one of %s)", name, part, strings.Join(valid, ", "))
		}
	}
	return nil
}

func atLeast[T int | float64](name string, v, min T) error {
	if v < min {
		return fmt.Errorf("-%s must be at least %v, got %v", name, min, v)
	}
	return nil
}

// config is the experiments configuration the shared flags select:
// Quick under -quick, Default otherwise, with -seed, -parallel and
// -params applied.
func (f *cmdFlags) config() experiments.Config {
	cfg := experiments.Default()
	if f.quick {
		cfg = experiments.Quick()
	}
	cfg.Seed, cfg.Parallel, cfg.Params = f.seed, f.parallel, f.params
	return cfg
}

// writeFile creates path, lets write fill it and reports the first error,
// Close's included.
func writeFile(path string, write func(io.Writer) error) error {
	fh, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(fh)
	if cerr := fh.Close(); err == nil {
		err = cerr
	}
	return err
}

// recordTrace stamps t with the build's provenance, writes it to path and
// returns its digest, which masks provenance.
func recordTrace(t *workload.Trace, path string) (string, error) {
	t.Header.Provenance = obs.CollectProvenance()
	if err := t.WriteFile(path); err != nil {
		return "", err
	}
	return t.SHA()
}

// writeReport writes rep to path and prints line, a format over the path,
// the report version and its config hash.
func writeReport(rep *obs.Report, path, line string) error {
	if err := rep.WriteFile(path); err != nil {
		return err
	}
	fmt.Printf(line, path, rep.Version, rep.ConfigHash)
	return nil
}
