// Smoke test: build the examples and commands, then execute each with a
// tiny workload. This is the "does the repo still run end-to-end" gate —
// it catches broken flag parsing, panics on startup and bit-rotted
// example code that unit tests never touch. Skipped under -short.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// smokeTargets lists main packages with the arguments that give the
// fastest meaningful run (measured well under 10 s each). It is not every
// one: retail-tune needs a recorded trace and a search file, and
// benchjson reads benchmark output. A target with a check runs in a
// temporary directory, which check then inspects; run invokes the same
// binary again there and returns its output.
var smokeTargets = []struct {
	pkg   string // package path relative to the module root
	args  []string
	check func(t *testing.T, dir string, run func(args ...string) []byte)
}{
	{"./examples/quickstart", nil, nil},
	{"./examples/colocation", nil, nil},
	{"./examples/database", nil, nil},
	{"./examples/multitier", nil, nil},
	{"./examples/replay", nil, nil},
	{"./examples/websearch", nil, nil},
	{"./cmd/retail-sim", []string{"-workers", "4", "-duration", "2", "-samples", "200"}, nil},
	// The workload flags end to end: record a cohort spec's stream, then
	// replay the file, whose class table must come back with it.
	{"./cmd/retail-sim", []string{
		"-workers", "4", "-rps", "400", "-duration", "1", "-samples", "200",
		"-spec", "slo-mix", "-record", "t.trace",
	}, func(t *testing.T, dir string, run func(args ...string) []byte) {
		out := run("-workers", "4", "-rps", "400", "-samples", "200", "-replay", "t.trace")
		if !bytes.Contains(out, []byte("class        interactive")) {
			t.Fatalf("replay of the recorded trace lost its class table:\n%s", out)
		}
	}},
	{"./cmd/retail-characterize", []string{"-quick"}, nil},
	{"./cmd/retail-bench", []string{"-list"}, nil},
	// Exercises the full wall-clock path including the Prometheus
	// exposition server (bound to an ephemeral port).
	{"./cmd/retail-live", []string{
		"-rps", "200", "-duration", "500ms", "-metrics-addr", "127.0.0.1:0",
	}, nil},
	// Replays a compressed fault plan against the live runtime: injector,
	// degradation machinery and the report path all run end-to-end.
	{"./cmd/retail-chaos", []string{
		"-plan", "overload-burst", "-seconds", "4", "-scale", "0.25", "-samples", "200",
	}, nil},
	// A two-dispatcher, one-policy fleet sweep at quick scale: the whole
	// cluster layer (routing, per-node managers, sweep merge) end-to-end.
	{"./cmd/retail-cluster", []string{
		"-quick", "-loads", "0.5", "-policies", "retail",
		"-dispatchers", "round-robin,global-jsq", "-requests", "1200",
	}, nil},
	// The open-loop client against an in-process server, once on a Poisson
	// schedule and once on a cohort spec's classed schedule, whose report
	// must carry a block per SLO class.
	{"./cmd/retail-loadgen", []string{"-selfhost", "-rps", "2000", "-duration", "300ms"}, nil},
	{"./cmd/retail-loadgen", []string{
		"-selfhost", "-spec", "slo-mix", "-rps", "2000", "-duration", "300ms", "-report", "report.json",
	}, func(t *testing.T, dir string, _ func(...string) []byte) {
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
	bindir := t.TempDir()
	for i, tgt := range smokeTargets {
		tgt := tgt
		name := filepath.Base(tgt.pkg)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(bindir, fmt.Sprintf("%s-%d", name, i))
			build := exec.Command("go", "build", "-o", bin, tgt.pkg)
			if out, err := build.CombinedOutput(); err != nil {
				t.Fatalf("go build %s: %v\n%s", tgt.pkg, err, out)
			}
			dir := ""
			if tgt.check != nil {
				dir = t.TempDir()
			}
			run := func(args ...string) []byte {
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				cmd := exec.CommandContext(ctx, bin, args...)
				cmd.Dir = dir
				out, err := cmd.CombinedOutput()
				if err != nil {
					t.Fatalf("%s %v: %v\n%s", name, args, err, out)
				}
				if len(out) == 0 {
					t.Fatalf("%s produced no output", name)
				}
				return out
			}
			run(tgt.args...)
			if tgt.check != nil {
				tgt.check(t, dir, run)
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
