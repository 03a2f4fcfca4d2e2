// Command bench is the repository's performance harness: five named
// workloads over the simulator and the wire runtime, end-to-end metrics
// from an untraced pass and per-layer metrics from a separate traced
// pass, all measured from outside the packages through their public
// functions. See README.md for the metric glossary and BENCHMARK.json
// (repository root) for the contract a driver runs it under.
//
//	bash bench/run.sh -workload fleet-shallow -seed 1 -seconds 10 -trace 0
//	bash bench/run.sh -workload node-deep -seed 1 -seconds 10 -trace 1
//	bash bench/run.sh -seed 1 -trace 1 -out run1.json     # every workload, each in a fresh process
//	bash bench/run.sh -compare run1.json run2.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// benchWorkload is one named set of inputs and the public entry point it
// drives. setup is everything before the first timed call; measure is
// the untraced pass that yields the end-to-end metrics; layers is the
// traced pass that yields the metrics the workload owns; close stops
// what setup started.
type benchWorkload interface {
	setup(e *env) error
	measure(e *env) error
	layers(e *env) error
	close()
}

// inProcess is embedded by the workloads that start nothing.
type inProcess struct{}

func (inProcess) close() {}

func newWorkload(name string) benchWorkload {
	switch name {
	case wFleet:
		return &fleetShallow{}
	case wNode:
		return &nodeDeep{}
	case wSweep:
		return sweepBaselines{}
	case wTune:
		return &tuneReplay{}
	case wLive:
		return &liveLoopback{}
	}
	return nil
}

// options are the command's flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
	spans    string
	runs     int
	tiny     bool
	only     bool
	setup    bool
}

func (o options) sizes() sizes {
	if o.tiny {
		return tinySizes()
	}
	return fullSizes(o.seconds)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// childEnv marks a process the harness started from its own binary. The
// harness itself never reads it; the package's test binary does, to act
// as the harness instead of running tests.
const childEnv = "RETAIL_BENCH_CHILD"

// selfCommand prepares a fresh process of this binary: the set-up
// repeats, the per-workload children and the live server are all this.
func selfCommand(args ...string) (*exec.Cmd, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func run(args []string, stdout io.Writer) int {
	var o options
	var trace string
	var compare bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run this workload in this process (default: every workload, each in a fresh child process); one of "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.seconds, "seconds", runSeconds, "how long a run measures, about")
	fs.StringVar(&trace, "trace", "0", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics")
	fs.StringVar(&o.out, "out", "", "write the JSON document here")
	fs.StringVar(&o.spans, "spans", "", "where the traced pass writes its spans as JSON lines (default .bench_build/spans-<workload>.jsonl)")
	fs.IntVar(&o.runs, "runs", 1, "without -workload: child runs per workload and pass, for the spread -compare reads")
	fs.BoolVar(&compare, "compare", false, "compare two documents written with -out: bench -compare a.json b.json")
	fs.BoolVar(&o.tiny, "tiny", false, "test horizon: all five workloads in a few seconds")
	fs.BoolVar(&o.only, "only", false, "with -trace 1: measure the named workload only, not the reduced-size walk over the others")
	printContract := fs.Bool("benchmark-json", false, "print BENCHMARK.json as the registry defines it")
	serve := fs.Bool("serve", false, "host the live server until stdin closes (the live-loopback workload calls itself with this)")
	fs.BoolVar(&o.setup, "setup-only", false, "run the workload's set-up and print its seconds (the harness calls itself with this)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch trace {
	case "0", "false":
	case "1", "true":
		o.trace = true
	default:
		fmt.Fprintf(os.Stderr, "bench: -trace %q: want 0 or 1\n", trace)
		return 2
	}
	if *printContract {
		stdout.Write(benchmarkJSON())
		return 0
	}
	if *serve {
		if err := serveMain(o.seed); err != nil {
			fmt.Fprintln(os.Stderr, "bench: server child:", err)
			return 1
		}
		return 0
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare needs two documents")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.workload == "" {
		return runAll(stdout, o)
	}
	if !knownWorkload(o.workload) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", o.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	if o.setup {
		return setupOnly(stdout, o)
	}
	res, err := runOne(stdout, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if o.out != "" {
		if err := writeDocument(o.out, newDocument(o, res)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return 0
}

// ---------------------------------------------------------------------------
// One workload in this process.

// setupOnly is the fresh-process set-up repeat: process start to set-up
// done, printed as seconds.
func setupOnly(stdout io.Writer, o options) int {
	e := &env{seed: o.seed, sz: o.sizes(), res: newResult(o.workload, o.seed, false), selected: true}
	w := newWorkload(o.workload)
	err := w.setup(e)
	took := time.Since(processStart).Seconds()
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up:", err)
		return 1
	}
	fmt.Fprintln(stdout, strconv.FormatFloat(took, 'g', -1, 64))
	return 0
}

// repeatSetup runs the set-up in fresh processes and returns their times:
// n of them, and up to 5n while they have taken less than a second in
// all, so that a set-up of a few milliseconds is a median of many.
func repeatSetup(o options, n int) ([]float64, error) {
	args := []string{"-setup-only", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds)}
	if o.tiny {
		args = append(args, "-tiny")
	}
	var out []float64
	start := time.Now()
	for i := 0; i < n || (i < 5*n && time.Since(start) < time.Second); i++ {
		cmd, err := selfCommand(args...)
		if err != nil {
			return nil, err
		}
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up repeat: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("set-up repeat printed %q", b)
		}
		out = append(out, v)
	}
	return out, nil
}

// runOne runs one pass over the named workload, prints the human-readable
// report and, as the last line, the driver's JSON object.
func runOne(stdout io.Writer, o options) (*runResult, error) {
	sz := o.sizes()
	res := newResult(o.workload, o.seed, o.trace)
	e := &env{seed: o.seed, sz: sz, res: res, selected: true}
	w := newWorkload(o.workload)
	defer w.close()
	var walked []*runResult
	// tracedPass is one workload's set-up and traced pass under a span.
	tracedPass := func(name string, w benchWorkload, e *env) error {
		defer e.tr.begin("bench", name)()
		defer w.close()
		if err := w.setup(e); err != nil {
			return err
		}
		return w.layers(e)
	}

	if !o.trace {
		err := w.setup(e)
		own := time.Since(processStart).Seconds()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", o.workload, err)
		}
		if err := w.measure(e); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		// Set-up repeats in fresh processes, after the timed work so they
		// cannot disturb it: memoised calibration would make an
		// in-process repeat free.
		reps, err := repeatSetup(o, sz.setupRepeats)
		if err != nil {
			return nil, err
		}
		res.set("setup_s", 0, append(reps, own)...)
	} else {
		e.tr = newTracer()
		probeRes := newResult(ownerProbe, o.seed, true)
		ps, err := runProbes(probeRes, e.tr, sz, o.seed)
		if err != nil {
			return nil, fmt.Errorf("probes: %w", err)
		}
		e.shared = ps
		walked = append(walked, probeRes)
		if !o.only {
			// The other workloads at reduced size, so that every
			// per-layer metric of the record is a measurement.
			mini := miniSizes()
			if o.tiny {
				mini = sz
			}
			for _, name := range workloadNames() {
				if name == o.workload {
					continue
				}
				me := &env{seed: o.seed, sz: mini, tr: e.tr, res: newResult(name, o.seed, true), shared: ps}
				if err := tracedPass("walk "+name, newWorkload(name), me); err != nil {
					return nil, fmt.Errorf("walk %s: %w", name, err)
				}
				walked = append(walked, me.res)
			}
		}
		if err := tracedPass(o.workload, w, e); err != nil {
			return nil, fmt.Errorf("%s: %w", o.workload, err)
		}
		spans := o.spans
		if spans == "" {
			spans = filepath.Join(".bench_build", "spans-"+o.workload+".jsonl")
		}
		if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
			return nil, err
		}
		if err := e.tr.writeJSONL(spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "%d spans written to %s\n", len(e.tr.spans), spans)
	}
	res.set("fail_frac", res.failFrac())

	printResult(stdout, res, o)
	for _, r := range walked {
		// The walk's operations are not this workload's; only its
		// failures are carried over, so that none goes unseen.
		if r.Failed > 0 {
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			res.Notes = append(res.Notes, r.Notes...)
		}
		if r.Workload != ownerProbe {
			fmt.Fprint(stdout, "\nreduced-size walk:")
		}
		printResult(stdout, r, o)
	}
	if o.trace {
		fmt.Fprintln(stdout)
		e.tr.printSelfTimes(stdout)
	}
	for _, n := range res.Notes {
		fmt.Fprintln(stdout, "FAILED CHECK:", n)
	}

	// The driver's line: every end_to_end metric on an untraced pass,
	// every per_layer metric on a traced one. On a traced pass the
	// selected workload's values win; the walk fills in the rest.
	line := driverLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverMetric{}}
	for _, def := range metricDefs {
		if def.EndToEnd == o.trace {
			continue
		}
		m, ok := res.Metrics[def.Name]
		for i := 0; !ok && i < len(walked); i++ {
			m, ok = walked[i].Metrics[def.Name]
		}
		if !ok {
			if o.only {
				continue
			}
			return nil, fmt.Errorf("metric %s was not measured", def.Name)
		}
		line.Metrics[def.Name] = driverMetric{m.Value, m.Unit}
		res.Metrics[def.Name] = m
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return res, nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

// printResult prints every metric the pass measured, by name, with its
// unit, direction and bound, then the budget table.
func printResult(w io.Writer, r *runResult, o options) {
	pass := "untraced pass"
	if r.Trace {
		pass = "traced pass"
	}
	fmt.Fprintf(w, "\n%s, %s, seed %d, %d s: %d operations, %d failed\n", r.Workload, pass, r.Seed, o.seconds, r.Attempted, r.Failed)
	if r.Digest != "" {
		fmt.Fprintf(w, "digest %s\n", r.Digest)
	}
	fmt.Fprintf(w, "  %-36s %16s %-8s %-7s %-16s %s\n", "metric", "value", "unit", "better", "bound", "samples")
	for _, def := range metricDefs {
		m, ok := r.Metrics[def.Name]
		if !ok {
			continue
		}
		samples := ""
		if len(m.Samples) > 1 {
			samples = fmt.Sprintf("n=%d min %.6g max %.6g", len(m.Samples), quantile(m.Samples, 0), quantile(m.Samples, 1))
		}
		fmt.Fprintf(w, "  %-36s %16.6g %-8s %-7s %-16s %s\n", def.Name, m.Value, m.Unit, def.Better, def.boundText(), samples)
	}
	for _, line := range r.Info {
		fmt.Fprintln(w, " ", line)
	}
	fmt.Fprintln(w)
	printBudget(w, r)
}

// ---------------------------------------------------------------------------
// Every workload, each in a fresh child process.

// document is what -out writes and -compare reads.
type document struct {
	Schema    int          `json:"schema"`
	Seed      int64        `json:"seed"`
	Seconds   int          `json:"seconds"`
	GoVersion string       `json:"go_version"`
	NumCPU    int          `json:"num_cpu"`
	Runs      []*runResult `json:"runs"`
}

func newDocument(o options, runs ...*runResult) *document {
	return &document{Schema: 1, Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Runs: runs}
}

func writeDocument(path string, d *document) error {
	b, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runAll runs each workload's passes in fresh children of this binary
// (clean set-up time, peak RSS and CPU per workload) and gathers their
// documents into one.
func runAll(stdout io.Writer, o options) int {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(".bench_build", "out")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	doc := newDocument(o)
	passes := []string{"0"}
	if o.trace {
		passes = append(passes, "1")
	}
	failed := 0
	digests := map[string]string{}
	for _, name := range workloadNames() {
		for _, pass := range passes {
			for i := 0; i < o.runs; i++ {
				part := filepath.Join(tmp, "part.json")
				args := []string{"-workload", name, "-seed", strconv.FormatInt(o.seed, 10), "-seconds", strconv.Itoa(o.seconds),
					"-trace", pass, "-only", "-out", part}
				if o.tiny {
					args = append(args, "-tiny")
				}
				cmd, err := selfCommand(args...)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				var buf bytes.Buffer
				cmd.Stdout = &buf
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s pass %s: %v\n", name, pass, err)
					return 1
				}
				// The child's report without its driver line.
				sc := bufio.NewScanner(&buf)
				sc.Buffer(nil, 1<<20)
				for sc.Scan() {
					if !strings.HasPrefix(sc.Text(), `{"correct"`) {
						fmt.Fprintln(stdout, sc.Text())
					}
				}
				sub, err := readDocument(part)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for _, r := range sub.Runs {
					// Simulated behaviour must not depend on the pass or
					// on which child ran it.
					if r.Digest != "" {
						if prev, seen := digests[name]; seen && prev != r.Digest {
							r.Attempted++
							r.Failed++
							r.Notes = append(r.Notes, "digest differs from an earlier run of "+name+" at this seed")
							fmt.Fprintf(stdout, "FAILED CHECK: %s: digest differs between runs at seed %d\n", name, o.seed)
						}
						digests[name] = r.Digest
					}
					failed += r.Failed
					doc.Runs = append(doc.Runs, r)
				}
			}
		}
	}
	if o.out != "" {
		if err := writeDocument(o.out, doc); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	names := make([]string, 0, len(digests))
	for n := range digests {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout)
	for _, n := range names {
		fmt.Fprintf(stdout, "digest %-16s %s\n", n, digests[n])
	}
	if failed > 0 {
		fmt.Fprintf(stdout, "%d operations failed\n", failed)
		return 1
	}
	return 0
}
