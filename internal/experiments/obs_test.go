package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"retail/internal/obs"
	"retail/internal/telemetry"
)

// obsFleetConfig shrinks the quick sweep to the smallest grid that still
// exercises the full observability plane: a decision-sink policy and one
// without, with ledgers and a registry attached.
func obsFleetConfig(seed int64) (Config, FleetOptions) {
	cfg, opt := quickFleetConfig(seed)
	opt.Loads = []float64{0.6}
	opt.Dispatchers = []string{"power-of-two"}
	opt.Policies = []string{"retail", "eetl"}
	opt.RequestsPerCell = 1500
	return cfg, opt
}

// TestMetricsScrapeDuringFleetSweep hammers /metrics and /debug/fleet
// over HTTP while a ledger-attached sweep is writing into the same
// registry. Run under -race this is the concurrency contract for the
// whole scrape path: Registry.WriteText, Gather and the roll-up must
// tolerate cells registering and updating instruments mid-scrape.
func TestMetricsScrapeDuringFleetSweep(t *testing.T) {
	reg := telemetry.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/debug/fleet", obs.FleetHandler(reg))
	mux.Handle("/", reg.Handler())
	ms, err := telemetry.ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	stop, done := make(chan struct{}), make(chan struct{})
	var scrapes, fleetScrapes atomic.Int64
	scrape := func(path string, n *atomic.Int64) {
		resp, err := http.Get("http://" + ms.Addr() + path)
		if err != nil {
			return // transient dial failure; the count check catches droughts
		}
		defer resp.Body.Close()
		if _, err := io.ReadAll(resp.Body); err == nil && resp.StatusCode == http.StatusOK {
			n.Add(1)
		}
	}
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			scrape("/metrics", &scrapes)
			scrape("/debug/fleet", &fleetScrapes)
		}
	}()

	cfg, opt := obsFleetConfig(42)
	opt.Ledger = true
	opt.Registry = reg
	res, err := FleetSweep(cfg, opt)
	// A warm-calibration sweep can finish before the first HTTP round
	// trip lands; keep scraping until both endpoints answered at least
	// once so the assertions below never race the scraper's startup.
	deadline := time.Now().Add(10 * time.Second)
	for (scrapes.Load() == 0 || fleetScrapes.Load() == 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-done
	if err != nil {
		t.Fatal(err)
	}
	if scrapes.Load() == 0 || fleetScrapes.Load() == 0 {
		t.Fatalf("scrape loop starved: %d /metrics, %d /debug/fleet", scrapes.Load(), fleetScrapes.Load())
	}

	// The post-sweep roll-up must cover at least the sweep's measured
	// completions (telemetry counts the whole run, warmup included, while
	// FleetResult counts only the measurement window).
	rollup := obs.RollupRegistry(reg)
	if len(rollup) != 1 {
		t.Fatalf("rollup has %d apps, want 1: %+v", len(rollup), rollup)
	}
	completed := 0
	for _, c := range res.Cells {
		completed += c.Result.Completed
	}
	if int(rollup[0].Completed) < completed {
		t.Fatalf("rollup completed %d < sweep's measured %d", rollup[0].Completed, completed)
	}

	// And a final scrape must carry both the request schema and the
	// per-cell labels the sweep attached.
	resp, err := http.Get("http://" + ms.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{telemetry.MetricRequestsTotal, `dispatcher="power-of-two"`, `policy="eetl"`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("final scrape is missing %q", want)
		}
	}
}

// TestFleetReportGolden pins the canonical (provenance-masked) report
// bytes at a fixed seed against the committed golden — the cross-PR diff
// contract for the whole attribution pipeline: ledger cells, winners,
// roll-up, hex placement hashes. Refresh with -update.
func TestFleetReportGolden(t *testing.T) {
	run := func() (*obs.Report, []byte) {
		cfg, opt := obsFleetConfig(42)
		reg := telemetry.NewRegistry()
		opt.Ledger = true
		opt.Registry = reg
		res, err := FleetSweep(cfg, opt)
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Report(42, obs.RollupRegistry(reg))
		masked := *rep
		masked.Provenance = obs.Provenance{}
		b, err := masked.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep, b
	}
	rep, got := run()
	if _, again := run(); !bytes.Equal(got, again) {
		t.Fatal("report is not byte-stable across reruns at the same seed")
	}

	// Semantic invariants before the byte comparison: every violation
	// carries a cause and every joule lands in a ledger cell.
	for _, c := range rep.Fleet.Cells {
		var causes, ledgerE = uint64(0), 0.0
		for _, ns := range c.Ledger {
			causes += ns.Violations()
			ledgerE += ns.UncoreJ
			for _, l := range ns.Levels {
				ledgerE += l.EnergyJ
			}
		}
		if causes != uint64(c.Violations) {
			t.Errorf("%s/%s: %d violations but %d cause-attributed", c.Dispatcher, c.Policy, c.Violations, causes)
		}
		if diff := ledgerE - c.EnergyJ; diff > 1e-9*c.EnergyJ || diff < -1e-9*c.EnergyJ {
			t.Errorf("%s/%s: ledger energy %v J vs cell %v J", c.Dispatcher, c.Policy, ledgerE, c.EnergyJ)
		}
	}
	var parsed obs.Report
	if err := json.Unmarshal(got, &parsed); err != nil {
		t.Fatalf("canonical report does not parse: %v", err)
	}
	if parsed.Version != obs.ReportVersion || parsed.Kind != "fleet-sweep" {
		t.Fatalf("bad envelope: version=%d kind=%q", parsed.Version, parsed.Kind)
	}

	golden := filepath.Join("testdata", "report_golden.json")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("canonical report diverges from golden (%d vs %d bytes) — run with -update after intentional changes%s",
			len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff renders the first byte divergence between two JSON blobs as
// a short context window, for actionable golden failures.
func firstDiff(got, want []byte) string {
	n := len(got)
	if len(want) < n {
		n = len(want)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := i - 40
			if lo < 0 {
				lo = 0
			}
			return fmt.Sprintf("\nfirst divergence at byte %d:\n got: %q\nwant: %q",
				i, got[lo:min(i+40, len(got))], want[lo:min(i+40, len(want))])
		}
	}
	return ""
}
