package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The harness re-executes its own binary (set-up repeats, the live
// server); under `go test` that binary is this test binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// contractFile mirrors the root BENCHMARK.json.
type contractFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) contractFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj contractFile
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(b) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(b))
	}
	if !bytes.Equal(b, benchmarkJSON()) {
		t.Error("BENCHMARK.json is not what the registry renders; regenerate it with: bash bench/run.sh -benchmark-json > BENCHMARK.json")
	}
	return bj
}

// The harness registry and BENCHMARK.json must not drift apart, and both
// must stay inside the contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if n := len(bj.Workloads); n < 2 || n > 8 || n != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry, limit 2..8", n, len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadDefs[i].Name || w.Why != workloadDefs[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, registry %q (or their reasons differ)", i, w.Name, workloadDefs[i].Name)
		}
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name, or why longer than 200 characters or one line (%d)", w.Name, len(w.Why))
		}
	}

	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var e2e, layer []metricDef
	for _, def := range metricDefs {
		if !bytes.Contains(readme, []byte("| `"+def.Name+"` | "+def.Unit+" | "+def.Better+" |")) {
			t.Errorf("README.md's glossary has no row for %s with unit %s, better %s", def.Name, def.Unit, def.Better)
		}
		if seen[def.Name] {
			t.Errorf("metric %s registered twice", def.Name)
		}
		seen[def.Name] = true
		if !nameRE.MatchString(def.Name) || !unitRE.MatchString(def.Unit) {
			t.Errorf("metric %s: bad name or unit %q", def.Name, def.Unit)
		}
		if def.Better != "lower" && def.Better != "higher" {
			t.Errorf("metric %s: better = %q", def.Name, def.Better)
		}
		if def.Moves == "" {
			t.Errorf("metric %s: no statement of what it should move", def.Name)
		}
		for _, o := range def.Owners {
			if o != ownerProbe && !knownWorkload(o) {
				t.Errorf("metric %s: unknown owner %q", def.Name, o)
			}
		}
		if def.EndToEnd {
			e2e = append(e2e, def)
		} else {
			layer = append(layer, def)
		}
	}
	if len(e2e) != len(bj.EndToEnd) || len(e2e) < 1 || len(e2e) > 16 {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the registry, limit 1..16", len(bj.EndToEnd), len(e2e))
	}
	if len(layer) != len(bj.PerLayer) || len(layer) < 1 || len(layer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the registry, limit 1..128", len(bj.PerLayer), len(layer))
	}
	setup := false
	for i, m := range bj.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, registry %s %s %s %g", i, m, d.Name, d.Unit, d.Better, d.Bound)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s in end_to_end")
	}
	for i, m := range bj.PerLayer {
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, registry %s %s %s", i, m, d.Name, d.Unit, d.Better)
		}
	}
}

// runLine runs the harness in-process and returns its driver line.
func runLine(t *testing.T, args ...string) (driverLine, string) {
	t.Helper()
	var out bytes.Buffer
	if code := run(append(args, "-spans", t.TempDir()+"/spans.jsonl"), &out); code != 0 {
		t.Fatalf("bench %v: exit %d\n%s", args, code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line driverLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("bench %v: last line is not the driver object: %v\n%s", args, err, lines[len(lines)-1])
	}
	if line.Attempted < 1 || line.Failed < 0 || line.Failed > line.Attempted || line.Correct != (line.Failed == 0) {
		t.Errorf("bench %v: correct %v attempted %d failed %d", args, line.Correct, line.Attempted, line.Failed)
	}
	for name, m := range line.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("bench %v: %s = %v", args, name, m.Value)
		}
		if def := metricByName(name); def == nil || def.Unit != m.Unit {
			t.Errorf("bench %v: %s reported with unit %q", args, name, m.Unit)
		}
	}
	return line, out.String()
}

// Every workload at the tiny horizon: the untraced pass emits exactly the
// end_to_end metrics, the traced pass exactly the per_layer ones, and a
// workload's own pass emits the metrics it owns and no other workload's.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		w := w.Name
		t.Run(w, func(t *testing.T) {
			line, out := runLine(t, "-workload", w, "-tiny", "-trace", "0")
			if len(line.Metrics) != len(bj.EndToEnd) {
				t.Errorf("untraced pass emitted %d metrics, want the %d end_to_end ones", len(line.Metrics), len(bj.EndToEnd))
			}
			for _, m := range bj.EndToEnd {
				if v, ok := line.Metrics[m.Name]; !ok || v.Value <= 0 {
					t.Errorf("untraced pass: %s = %v (present %v); end-to-end metrics are never 0", m.Name, v.Value, ok)
				}
			}
			if w != wLive && !line.Correct { // the wire workload's health rules may trip on a loaded test host
				t.Errorf("untraced pass failed %d of %d operations\n%s", line.Failed, line.Attempted, out)
			}

			line, out = runLine(t, "-workload", w, "-tiny", "-trace", "1", "-only")
			if w != wLive && !line.Correct {
				t.Errorf("traced pass failed %d of %d operations\n%s", line.Failed, line.Attempted, out)
			}
			for _, def := range metricDefs {
				_, got := line.Metrics[def.Name]
				switch want := !def.EndToEnd && def.definedOn(w); {
				case want && !got:
					t.Errorf("traced pass did not emit %s, which %s defines", def.Name, w)
				case !want && got:
					t.Errorf("traced pass emitted %s, which %s does not define", def.Name, w)
				}
			}
			if !strings.Contains(out, "budget "+w) {
				t.Errorf("traced pass printed no budget table for %s", w)
			}
		})
	}
	t.Run("walk", func(t *testing.T) {
		line, _ := runLine(t, "-workload", wTune, "-tiny", "-trace", "1")
		if len(line.Metrics) != len(bj.PerLayer) {
			t.Errorf("traced pass emitted %d metrics, want the %d per_layer ones", len(line.Metrics), len(bj.PerLayer))
		}
		for _, m := range bj.PerLayer {
			if _, ok := line.Metrics[m.Name]; !ok {
				t.Errorf("traced pass did not emit %s", m.Name)
			}
		}
	})
}

func TestParseResponse(t *testing.T) {
	for _, tc := range []struct {
		line string
		want wireResponse
		ok   bool
	}{
		{`{"id":4294967301,"gen_ns":7,"recv_ns":10,"start_ns":11,"end_ns":12,"level":3}`, wireResponse{id: 1<<32 | 5, recv: 10, start: 11, end: 12}, true},
		{`{"end_ns":12,"start_ns":11,"recv_ns":10,"id":9}` + "\n", wireResponse{id: 9, recv: 10, start: 11, end: 12}, true},
		{`{"id":3,"recv_ns":10,"start_ns":0,"end_ns":0,"level":0,"dropped":true}`, wireResponse{id: 3, recv: 10, dropped: true}, true},
		{`{"id": 3, "recv_ns": 10, "start_ns": 11, "end_ns": 12, "level": 1}`, wireResponse{id: 3, recv: 10, start: 11, end: 12}, true}, // spaces: the encoding/json fallback
		{`not json`, wireResponse{}, false},
	} {
		got, ok := parseResponse([]byte(tc.line))
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("parseResponse(%q) = %+v, %v; want %+v, %v", tc.line, got, ok, tc.want, tc.ok)
		}
	}
}
