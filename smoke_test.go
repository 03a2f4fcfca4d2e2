// Smoke test: build the examples and the retail command, then execute each
// example and every retail subcommand with a tiny workload. This is the
// "does the repo still run end-to-end" gate — it catches broken flag
// parsing, panics on startup and bit-rotted example code that unit tests
// never touch. Skipped under -short.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// smokeTargets lists the examples and the retail subcommands with the
// arguments that give the fastest meaningful run (measured well under 10 s
// each). It is not every surface: benchjson reads benchmark output. A
// target with a check runs in a temporary directory, which check then
// inspects; run invokes the same binary again there and returns its
// output. exit is the status the target's own run must end with.
var smokeTargets = []struct {
	pkg   string // package path relative to the module root
	args  []string
	exit  int
	check func(t *testing.T, dir string, run func(args ...string) []byte)
}{
	{"./examples/quickstart", nil, 0, nil},
	{"./examples/colocation", nil, 0, nil},
	{"./examples/database", nil, 0, nil},
	{"./examples/multitier", nil, 0, nil},
	{"./examples/replay", nil, 0, nil},
	{"./examples/websearch", nil, 0, nil},
	// With no subcommand, retail lists them and exits as on a usage error.
	{"./cmd/retail", nil, 2, func(t *testing.T, dir string, run func(args ...string) []byte) {
		out := run("help")
		for _, sub := range []string{"sim", "cluster", "tune", "chaos", "bench", "characterize", "live", "loadgen"} {
			if !bytes.Contains(out, []byte("\n  "+sub+" ")) {
				t.Fatalf("subcommand list lacks %s:\n%s", sub, out)
			}
		}
	}},
	{"./cmd/retail", []string{"sim", "-workers", "4", "-duration", "2", "-samples", "200"}, 0, nil},
	// The workload flags end to end: record a cohort spec's stream, then
	// replay the file, whose class table must come back with it. Then the
	// digital-twin loop on that trace: tune a 2×2 grid and replay the
	// winning params.
	{"./cmd/retail", []string{
		"sim", "-workers", "4", "-rps", "400", "-duration", "1", "-samples", "200",
		"-spec", "slo-mix", "-record", "t.trace",
	}, 0, func(t *testing.T, dir string, run func(args ...string) []byte) {
		out := run("sim", "-workers", "4", "-rps", "400", "-samples", "200", "-replay", "t.trace")
		if !bytes.Contains(out, []byte("class        interactive")) {
			t.Fatalf("replay of the recorded trace lost its class table:\n%s", out)
		}
		search := `{"version":1,"mode":"grid","axes":[` +
			`{"field":"monitor.guard_band","values":[0.85,0.95]},{"field":"monitor.alpha","values":[0.5,1]}]}`
		if err := os.WriteFile(filepath.Join(dir, "s.json"), []byte(search), 0o644); err != nil {
			t.Fatal(err)
		}
		out = run("tune", "-trace", "t.trace", "-search", "s.json", "-workers", "4", "-samples", "200", "-out", "p.json")
		if !bytes.Contains(out, []byte("wrote p.json")) {
			t.Fatalf("tune wrote no params:\n%s", out)
		}
		run("sim", "-workers", "4", "-samples", "200", "-replay", "t.trace", "-params", "p.json")
	}},
	{"./cmd/retail", []string{"characterize", "-quick"}, 0, nil},
	{"./cmd/retail", []string{"bench", "-list"}, 0, nil},
	// Exercises the full wall-clock path including the Prometheus
	// exposition server (bound to an ephemeral port).
	{"./cmd/retail", []string{
		"live", "-rps", "200", "-duration", "500ms", "-metrics-addr", "127.0.0.1:0",
	}, 0, nil},
	// Replays a compressed fault plan against the live runtime: injector,
	// degradation machinery and the report path all run end-to-end.
	{"./cmd/retail", []string{
		"chaos", "-plan", "overload-burst", "-seconds", "4", "-scale", "0.25", "-samples", "200",
	}, 0, nil},
	// A two-dispatcher, one-policy fleet sweep at quick scale: the whole
	// cluster layer (routing, per-node managers, sweep merge) end-to-end.
	{"./cmd/retail", []string{
		"cluster", "-quick", "-loads", "0.5", "-policies", "retail",
		"-dispatchers", "round-robin,global-jsq", "-requests", "1200",
	}, 0, nil},
	// The open-loop client against an in-process server, once on a Poisson
	// schedule and once on a cohort spec's classed schedule, whose report
	// must carry a block per SLO class.
	{"./cmd/retail", []string{"loadgen", "-selfhost", "-rps", "2000", "-duration", "300ms"}, 0, nil},
	{"./cmd/retail", []string{
		"loadgen", "-selfhost", "-spec", "slo-mix", "-rps", "2000", "-duration", "300ms", "-report", "report.json",
	}, 0, func(t *testing.T, dir string, _ func(...string) []byte) {
		b, err := os.ReadFile(filepath.Join(dir, "report.json"))
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Loadgen struct {
				Completed int `json:"completed"`
				Classes   []struct {
					Class string `json:"class"`
				} `json:"classes"`
			} `json:"loadgen"`
		}
		if err := json.Unmarshal(b, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Loadgen.Completed == 0 || len(rep.Loadgen.Classes) == 0 {
			t.Fatalf("report has %d completed and %d class blocks:\n%s",
				rep.Loadgen.Completed, len(rep.Loadgen.Classes), b)
		}
	}},
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test builds and runs every binary")
	}
	// One build for every package: each binary lands in bindir under its
	// package's base name.
	bindir := t.TempDir()
	pkgs := []string{}
	for _, tgt := range smokeTargets {
		if !slices.Contains(pkgs, tgt.pkg) {
			pkgs = append(pkgs, tgt.pkg)
		}
	}
	build := exec.Command("go", append([]string{"build", "-o", bindir + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tgt := range smokeTargets {
		bin := filepath.Join(bindir, filepath.Base(tgt.pkg))
		// A subcommand's leg is named retail-<subcommand>.
		name := filepath.Base(tgt.pkg)
		if len(tgt.args) > 0 {
			name += "-" + tgt.args[0]
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			dir := ""
			if tgt.check != nil {
				dir = t.TempDir()
			}
			run := func(exit int, args ...string) []byte {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				cmd := exec.CommandContext(ctx, bin, args...)
				cmd.Dir = dir
				out, err := cmd.CombinedOutput()
				if code := cmd.ProcessState.ExitCode(); code != exit {
					t.Fatalf("%s %v: exit %d (%v), want %d\n%s", name, args, code, err, exit, out)
				}
				if len(out) == 0 {
					t.Fatalf("%s produced no output", name)
				}
				return out
			}
			run(tgt.exit, tgt.args...)
			if tgt.check != nil {
				tgt.check(t, dir, func(args ...string) []byte { return run(0, args...) })
			}
		})
	}
}

// benchTinyDigests pins each simulator workload's digest — a SHA-256 over
// its simulated statistics at seed 1 — at the test horizon. A change that
// alters what the simulator computes changes one of these; a change that
// only makes it faster must not.
var benchTinyDigests = map[string]string{
	"fleet-shallow":   "e2d53cf7517025be87770a1cd1d5f56f6419e1663efd032894423e9af95e9356",
	"node-deep":       "5f33b5bfac0336ce1e570d6d16fd9d14b2eac17dee87f34c9df3f87f9cb6475c",
	"tune-replay":     "7da0207ebfc1907bbb6f00046a68d456aea8d9e5e6ec8e00ae143805241aec00",
	"sweep-baselines": "7ec09a2196ddc6855a91ec0d3e399edd4c9f4a0d43651b210670d36baec5f430",
}

// TestBenchHarness keeps bench/ — a separate module that `go test ./...`
// does not reach, and the only accepted source of speed claims — inside
// the tier-1 fence: it builds the harness the way bench/run.sh does and
// runs each simulator workload at the test horizon. A refactor that breaks
// an entry point the harness drives, changes what a run computes from one
// call to the next, or changes the simulated outcome (benchTinyDigests)
// fails here rather than at the benchmark driver.
func TestBenchHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the bench harness")
	}
	bin := filepath.Join(t.TempDir(), "retail-bench")
	build := exec.Command("go", "build", "-C", "bench", "-o", bin, ".")
	build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build -C bench: %v\n%s", err, out)
	}
	for w, want := range benchTinyDigests {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, bin, "--workload", w, "-tiny", "--trace", "0", "-out", "run.json")
			cmd.Dir = t.TempDir() // anything the harness writes stays out of the tree
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s%s", w, err, out, stderr.Bytes())
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var verdict struct {
				Correct   *bool `json:"correct"`
				Attempted int   `json:"attempted"`
				Failed    int   `json:"failed"`
			}
			last := lines[len(lines)-1]
			if err := json.Unmarshal(last, &verdict); err != nil || verdict.Correct == nil {
				t.Fatalf("%s: last stdout line is not the harness's verdict (%v): %s", w, err, last)
			}
			if !*verdict.Correct || verdict.Attempted == 0 || verdict.Failed != 0 {
				t.Fatalf("%s: %s\n%s%s", w, last, out, stderr.Bytes())
			}
			b, err := os.ReadFile(filepath.Join(cmd.Dir, "run.json"))
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Runs []struct {
					Digest string `json:"digest"`
				} `json:"runs"`
			}
			if err := json.Unmarshal(b, &doc); err != nil || len(doc.Runs) == 0 {
				t.Fatalf("%s: -out document has no runs (%v):\n%s", w, err, b)
			}
			if got := doc.Runs[0].Digest; got != want {
				t.Errorf("%s: digest %s, want %s (the simulated outcome changed)", w, got, want)
			}
		})
	}
}
