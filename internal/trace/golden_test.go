package trace

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestChromeTraceGolden pins the Chrome trace export byte-for-byte for a
// fixed-seed simulation: the event sort order, the float formatting and
// the args schema are all part of the contract Perfetto-side tooling
// (and `make golden-check`) relies on. Run with -update after an
// intentional format change.
func TestChromeTraceGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a calibrated simulation")
	}
	// Small bounded rings keep the golden file reviewable while still
	// exercising sampling, eviction and the counter track.
	fr, _ := flightRun(t, FlightRecorderConfig{
		Capacity:     48,
		SampleEvery:  4,
		FreqCapacity: 96,
	}, 700, 1.5)

	var got bytes.Buffer
	if err := fr.WriteChrome(&got); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join("testdata", "chrome_golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/trace -run TestChromeTraceGolden -update` to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		// Locate the first divergence for a usable failure message.
		n := len(got.Bytes())
		if len(want) < n {
			n = len(want)
		}
		at := n
		for i := 0; i < n; i++ {
			if got.Bytes()[i] != want[i] {
				at = i
				break
			}
		}
		lo := at - 60
		if lo < 0 {
			lo = 0
		}
		hiG, hiW := at+60, at+60
		if hiG > got.Len() {
			hiG = got.Len()
		}
		if hiW > len(want) {
			hiW = len(want)
		}
		t.Fatalf("chrome trace diverges from golden at byte %d (got %d bytes, want %d):\n got …%q…\nwant …%q…\n(run with -update after an intentional format change)",
			at, got.Len(), len(want), got.Bytes()[lo:hiG], want[lo:hiW])
	}
}

// TestChromeTraceDeterministic double-checks byte stability within one
// process: two identical fixed-seed runs must export identical bytes.
func TestChromeTraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two calibrated simulations")
	}
	cfg := FlightRecorderConfig{Capacity: 48, SampleEvery: 4, FreqCapacity: 96}
	var a, b bytes.Buffer
	fr1, _ := flightRun(t, cfg, 700, 1.5)
	if err := fr1.WriteChrome(&a); err != nil {
		t.Fatal(err)
	}
	fr2, _ := flightRun(t, cfg, 700, 1.5)
	if err := fr2.WriteChrome(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical runs exported different chrome traces")
	}
}
