// Package experiments regenerates every table and figure in the paper's
// characterization (§III) and evaluation (§V, §VII) sections. Each
// experiment is a function returning a structured result with a Render
// method that prints the same rows/series the paper reports; retail bench
// and the repository's benchmark harness drive them.
//
// Absolute numbers differ from the paper — the substrate is a calibrated
// simulator, not a Xeon Gold 6152 — but the shapes the paper argues from
// (who wins, by what rough factor, where the crossovers are) are asserted
// by the test suite in this package.
package experiments

import (
	"fmt"
	"strings"

	"retail/internal/core"
	"retail/internal/nn"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Config controls experiment scale. Quick keeps runs short enough for CI;
// the full configuration reproduces the paper's sweep resolution.
type Config struct {
	Platform core.Platform
	// SamplesPerLevel is the calibration size (paper: 1000).
	SamplesPerLevel int
	// Loads are the load points as fractions of max load (paper: 0.1–1.0
	// in 0.1 steps).
	Loads []float64
	// Seed drives all randomness.
	Seed int64
	// MaxDuration caps each measured run (0 = RecommendedDuration's own cap).
	MaxDuration sim.Duration
	// Parallel is the sweep worker count: how many independent simulation
	// cells (app × load × manager combinations) run concurrently. 0 (the
	// default) selects runtime.GOMAXPROCS(0); 1 forces the historical
	// sequential loops. Results are merged in canonical cell order, so the
	// value changes wall-clock time only — rendered tables and CSV exports
	// are byte-identical at every setting.
	Parallel int
	// GeminiNN overrides Gemini's network structure (nil = the published
	// 5×128, which is slow to train in a test setting).
	GeminiNN *nn.Config
	// Trace attaches a span flight recorder (decision-attributed request
	// tracing) to the trace-capable scenarios — the load spike and the
	// Fig 14 drift timeline. The recorder is a pure observer, so traced
	// results are identical to untraced ones; the result structs then carry
	// the recorder for Chrome-trace/CSV export.
	Trace bool
	// Params is the serializable policy parameterization under which the
	// sweeps construct their managers (core.Calibration.New*Params). The
	// zero value keeps every historical constant, so all golden-pinned
	// tables are byte-identical without a params file.
	Params policy.Params
}

// Default returns the paper-resolution configuration.
func Default() Config {
	loads := make([]float64, 10)
	for i := range loads {
		loads[i] = 0.1 * float64(i+1)
	}
	return Config{
		Platform:        core.DefaultPlatform(),
		SamplesPerLevel: 1000,
		Loads:           loads,
		Seed:            42,
	}
}

// Quick returns a reduced configuration for tests and smoke benchmarks.
func Quick() Config {
	cfg := Default()
	cfg.Platform = cfg.Platform.WithWorkers(8)
	cfg.SamplesPerLevel = 400
	cfg.Loads = []float64{0.3, 0.6, 0.9}
	cfg.MaxDuration = 12
	small := nn.TunedConfig(1, 2, 32, 30, 32)
	cfg.GeminiNN = &small
	return cfg
}

// runDuration picks the measured window for one run.
func (c Config) runDuration(app workload.App, rps float64) sim.Duration {
	d := core.RecommendedDuration(app, rps)
	if c.MaxDuration > 0 && d > c.MaxDuration {
		d = c.MaxDuration
	}
	return d
}

// table renders rows of columns with aligned widths.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
func dur(v float64) string { return sim.Time(v).String() }

// AppNames lists the seven applications in the paper's order.
func AppNames() []string {
	names := make([]string, 0, 7)
	for _, a := range workload.All() {
		names = append(names, a.Name())
	}
	return names
}
