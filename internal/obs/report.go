package obs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"retail/internal/workload"
)

// ReportVersion is bumped whenever the report's JSON shape changes in a
// way a consumer could mis-read; diff tooling refuses to compare
// reports across versions.
const ReportVersion = 1

// Provenance stamps where a report came from — commit, go version, OS,
// architecture and CPU, plus the wall-clock instant. Provenance is
// the *only* part of a report allowed to differ between two runs at the
// same seed; goldens zero it and pin everything else byte-for-byte. It
// is the trace v2 header's type, so one stamp serves a report and a
// recording alike.
type Provenance = workload.TraceProvenance

// CollectProvenance stamps the current process. Commit and CPU are
// best-effort: a report written outside a checkout simply omits them.
func CollectProvenance() Provenance {
	return Provenance{
		GoVersion: runtime.Version(),
		GoOS:      runtime.GOOS,
		GoArch:    runtime.GOARCH,
		CPU:       cpuModel(),
		Commit:    gitCommit(),
		Time:      time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel best-effort reads the CPU model string (Linux /proc/cpuinfo).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return ""
}

// gitCommit best-effort resolves the working tree's HEAD.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// Report is the unified run artifact: exactly one of Fleet, Sim or
// Loadgen is set, matching Kind. Everything outside Provenance is a
// pure function of (config, seed) for the two simulated kinds, which is
// what makes reports diffable across PRs: re-run the same seed on two
// commits, mask provenance, and byte-compare.
type Report struct {
	Version    int        `json:"version"`
	Kind       string     `json:"kind"` // "fleet-sweep", "sim" or "loadgen"
	Provenance Provenance `json:"provenance"`
	Seed       int64      `json:"seed"`
	// ConfigHash fingerprints the run configuration (HashConfig) so a
	// diff tool can refuse to compare reports of different experiments.
	ConfigHash string `json:"config_hash"`

	Fleet   *FleetReport   `json:"fleet,omitempty"`
	Sim     *SimReport     `json:"sim,omitempty"`
	Loadgen *LoadgenReport `json:"loadgen,omitempty"`
	Tune    *TuneReport    `json:"tune,omitempty"`
}

// NewReport stamps an empty report of the given kind with provenance.
func NewReport(kind string, seed int64, configHash string) *Report {
	return &Report{
		Version:    ReportVersion,
		Kind:       kind,
		Provenance: CollectProvenance(),
		Seed:       seed,
		ConfigHash: configHash,
	}
}

// JSON renders the full report, indented, trailing newline included.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteFile writes the full report to path (0644).
func (r *Report) WriteFile(path string) error {
	b, err := r.JSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// HashConfig fingerprints a run configuration from its printable parts:
// a short, stable hex digest for Report.ConfigHash.
func HashConfig(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%v\x00", p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// FleetReport is the fleet-sweep payload: the routing×policy×load grid
// with every cell carrying its per-node attribution ledger, plus the
// winners table and the fleet-level roll-up.
type FleetReport struct {
	App            string  `json:"app"`
	QoSSeconds     float64 `json:"qos_seconds"`
	QoSPercentile  float64 `json:"qos_percentile"`
	Nodes          int     `json:"nodes"`
	WorkersPerNode int     `json:"workers_per_node"`
	MaxRPSPerNode  float64 `json:"max_rps_per_node"`

	Cells   []FleetCellReport `json:"cells"`
	Winners []WinnerReport    `json:"winners"`
	Rollup  []AppRollup       `json:"rollup,omitempty"`
}

// FleetCellReport is one (load, dispatcher, policy) cell: the winners-
// table scalars plus the attribution ledger that explains them.
type FleetCellReport struct {
	Load       float64 `json:"load"`
	Dispatcher string  `json:"dispatcher"`
	Policy     string  `json:"policy"`
	RPS        float64 `json:"rps"`

	Completed  int  `json:"completed"`
	Dropped    int  `json:"dropped"`
	Violations int  `json:"violations"`
	QoSMet     bool `json:"qos_met"`

	MeanLatency float64 `json:"mean_latency_s"`
	P50         float64 `json:"p50_s"`
	P95         float64 `json:"p95_s"`
	P99         float64 `json:"p99_s"`
	TailAtQoS   float64 `json:"tail_at_qos_s"`

	EnergyJ   float64 `json:"energy_joules"`
	AvgPowerW float64 `json:"avg_power_w"`

	// PlacementHash is hex (uint64 does not survive JSON numbers).
	PlacementHash string  `json:"placement_hash"`
	ImbalanceCV   float64 `json:"imbalance_cv"`

	Ledger []NodeSummary `json:"ledger,omitempty"`
}

// WinnerReport mirrors experiments.FleetWinner.
type WinnerReport struct {
	Load       float64 `json:"load"`
	Policy     string  `json:"policy"`
	Dispatcher string  `json:"dispatcher"`
	Tail       float64 `json:"tail_at_qos_s"`
}

// SimReport is the single-node simulation payload.
type SimReport struct {
	App      string  `json:"app"`
	Manager  string  `json:"manager"`
	RPS      float64 `json:"rps"`
	Duration float64 `json:"duration_s"`

	Completed  int  `json:"completed"`
	Dropped    int  `json:"dropped"`
	Violations int  `json:"violations"`
	QoSMet     bool `json:"qos_met"`

	MeanLatency float64 `json:"mean_latency_s"`
	P50         float64 `json:"p50_s"`
	P95         float64 `json:"p95_s"`
	P99         float64 `json:"p99_s"`
	TailAtQoS   float64 `json:"tail_at_qos_s"`

	EnergyJ   float64 `json:"energy_joules"`
	AvgPowerW float64 `json:"avg_power_w"`

	Ledger []NodeSummary `json:"ledger,omitempty"`

	// Classes breaks latency down per SLO class when the run was driven
	// by a cohort spec or recorded trace (absent otherwise — the field is
	// additive, so single-class reports are byte-identical to version-1
	// reports without it).
	Classes []SLOClassLatency `json:"classes,omitempty"`
}

// SLOClassLatency is one SLO class's slice of a run: HDR-measured
// quantiles against the class's scaled QoS target. Order follows the
// generating spec's class table.
type SLOClassLatency struct {
	Class     string  `json:"class"`
	QoSScale  float64 `json:"qos_scale"`
	Completed int     `json:"completed"`
	Dropped   int     `json:"dropped"`
	P50       float64 `json:"p50_s"`
	P95       float64 `json:"p95_s"`
	P99       float64 `json:"p99_s"`
	TailAtQoS float64 `json:"tail_at_qos_s"`
	QoSTarget float64 `json:"qos_target_s"`
	QoSMet    bool    `json:"qos_met"`
}

// LoadgenReport is the open-loop load-generation payload. A loadgen run
// is wall-clock, so unlike the simulated kinds it is not byte-stable —
// the report exists for archival and cross-run eyeballing, and the
// schema stays versioned with the rest.
type LoadgenReport struct {
	App      string  `json:"app"`
	Addr     string  `json:"addr"`
	Conns    int     `json:"conns"`
	Duration float64 `json:"duration_s"`

	Sent       int     `json:"sent"`
	Completed  int     `json:"completed"`
	Dropped    int     `json:"dropped"`
	Unanswered int     `json:"unanswered"`
	OfferedRPS float64 `json:"offered_rps"`
	SentRPS    float64 `json:"sent_rps"`
	ElapsedS   float64 `json:"elapsed_s"`

	LatencyS LatencyQuantiles `json:"latency_s"`

	// Classes mirrors SimReport.Classes for spec-driven load runs.
	Classes []SLOClassLatency `json:"classes,omitempty"`
}

// TuneReport is the digital-twin autotuning payload: every candidate's
// replay metrics in ranked order, plus the fingerprints (trace, spec,
// winning params) that make the run re-derivable. Like the simulated
// kinds it is a pure function of (trace, spec, config, seed), so tune
// reports golden-pin byte-for-byte with provenance zeroed. The field is
// additive: reports of the other kinds omit it and stay byte-identical.
type TuneReport struct {
	SpecName string `json:"spec_name,omitempty"`
	SpecSHA  string `json:"spec_sha"`
	TraceSHA string `json:"trace_sha"`

	App      string `json:"app"`
	Manager  string `json:"manager"`
	Workers  int    `json:"workers"`
	Replayed int    `json:"replayed"`

	// Axes are the searched field paths; every candidate's Values align
	// with them.
	Axes []string `json:"axes"`

	// Candidates is ranked best-first.
	Candidates []TuneCandidate `json:"candidates"`

	WinnerIndex     int    `json:"winner_index"`
	WinnerParamsSHA string `json:"winner_params_sha"`
}

// TuneCandidate is one scored replay.
type TuneCandidate struct {
	Rank      int       `json:"rank"`
	Index     int       `json:"index"`
	Values    []float64 `json:"values"`
	ParamsSHA string    `json:"params_sha"`

	Completed  int  `json:"completed"`
	Dropped    int  `json:"dropped"`
	Violations int  `json:"violations"`
	QoSMet     bool `json:"qos_met"`

	P99       float64 `json:"p99_s"`
	TailAtQoS float64 `json:"tail_at_qos_s"`
	EnergyJ   float64 `json:"energy_joules"`
	AvgPowerW float64 `json:"avg_power_w"`

	Score float64 `json:"score"`
}

// LatencyQuantiles is the standard quantile ladder in seconds.
type LatencyQuantiles struct {
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	P9999 float64 `json:"p9999"`
	Max   float64 `json:"max"`
}
