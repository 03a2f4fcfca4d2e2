package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickFleetConfig keeps the sweep CI-sized: a 4-node fleet per cell, two
// load points, all four dispatchers × all four node policies.
func quickFleetConfig(seed int64) (Config, FleetOptions) {
	cfg := Quick()
	cfg.Seed = seed
	opt := FleetOptions{
		Nodes:           4,
		WorkersPerNode:  2,
		Loads:           []float64{0.3, 0.7},
		RequestsPerCell: 2500,
	}
	return cfg, opt
}

// TestFleetSweepGolden pins the rendered routing×policy×load table —
// including every cell's placement hash — byte-for-byte against the
// committed golden. Because the placement hashes cover the dispatchers'
// entire routing streams, a pass here is also a determinism proof for
// the routing layer at golden scale. Refresh with -update.
func TestFleetSweepGolden(t *testing.T) {
	cfg, opt := quickFleetConfig(42)
	res, err := FleetSweep(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Render()
	golden := filepath.Join("testdata", "fleet_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal([]byte(got), want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("fleet render diverges from golden at line %d:\n got: %q\nwant: %q\n(run with -update after intentional changes)",
					i+1, gl[i], at(wl, i))
			}
		}
		t.Fatalf("fleet render diverges from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
	if res.DistinctWinners() < 2 {
		t.Fatalf("only %d distinct winning dispatchers — the routing axis no longer flips the p99 winner", res.DistinctWinners())
	}
}

func at(lines []string, i int) string {
	if i < len(lines) {
		return lines[i]
	}
	return "<eof>"
}

// TestFleetSweepMultiSeedSHA pins the SHA-256 of the rendered sweep at
// two seeds: the table is a pure function of (config, seed), and a seed
// change must actually change the output (the hashes differ).
func TestFleetSweepMultiSeedSHA(t *testing.T) {
	seeds := []int64{42, 1007}
	var lines []string
	for _, seed := range seeds {
		cfg, opt := quickFleetConfig(seed)
		res, err := FleetSweep(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(res.Render()))
		lines = append(lines, fmt.Sprintf("seed=%d sha256=%x", seed, sum))
	}
	if lines[0] == lines[1] {
		t.Fatal("different seeds hashed identically")
	}
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "fleet_sha256.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("multi-seed sweep hashes diverge:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestFleetSweepParallelByteIdentical is the sweep half of the dispatcher
// determinism contract: -parallel 1 and -parallel 8 must render the same
// bytes and report identical placement streams cell by cell.
func TestFleetSweepParallelByteIdentical(t *testing.T) {
	run := func(parallel int) *FleetSweepResult {
		cfg, opt := quickFleetConfig(42)
		cfg.Parallel = parallel
		// Shrink further: this test runs the grid twice.
		opt.Loads = []float64{0.5}
		opt.RequestsPerCell = 1500
		res, err := FleetSweep(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(8)
	if seq.Render() != par.Render() {
		t.Fatal("-parallel 1 and -parallel 8 rendered different sweeps")
	}
	for i := range seq.Cells {
		a, b := seq.Cells[i].Result, par.Cells[i].Result
		if a.PlacementHash != b.PlacementHash || a.Routed != b.Routed {
			t.Fatalf("cell %d (%s/%s): placement streams diverge across parallelism",
				i, seq.Cells[i].Dispatcher, seq.Cells[i].Policy)
		}
	}
}

// TestFleetSweepCSV sanity-checks the export: header plus one row per
// cell, stable across calls.
func TestFleetSweepCSV(t *testing.T) {
	cfg, opt := quickFleetConfig(42)
	opt.Loads = []float64{0.5}
	opt.Policies = []string{"retail"}
	opt.RequestsPerCell = 1500
	res, err := FleetSweep(cfg, opt)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := res.CSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := res.CSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("CSV not stable across calls")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 1+len(res.Cells) {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+len(res.Cells))
	}
	if !strings.HasPrefix(lines[0], "load,dispatcher,policy,") {
		t.Fatalf("unexpected CSV header %q", lines[0])
	}
}
