package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// processStart is as close to exec as Go code gets; setup_s counts from it.
var processStart = time.Now()

// measured is one reported metric value. Samples are the per-unit (or
// per-repeat) values Value is the median of; -compare reads their spread.
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// budgetRow is one line of a workload's budget table: what one layer
// costs per request, next to the end-to-end cost per request.
type budgetRow struct {
	Layer    string  `json:"layer"`
	NsPerReq float64 `json:"ns_per_req"`
	Source   string  `json:"source"` // how the row was measured
}

// runResult is what one pass over one workload produces.
type runResult struct {
	Workload  string              `json:"workload"`
	Seed      int64               `json:"seed"`
	Trace     bool                `json:"trace"`
	Metrics   map[string]measured `json:"metrics"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Notes     []string            `json:"notes,omitempty"` // one per failed check
	Info      []string            `json:"info,omitempty"`  // printed with the metrics, not judged
	// Digest is the SHA-256 over the first unit's simulated statistics;
	// equal digests mean equal simulated behaviour.
	Digest string `json:"digest,omitempty"`
	// E2ENsPerReq and Budget feed the printed budget table.
	E2ENsPerReq float64     `json:"e2e_ns_per_req,omitempty"`
	Budget      []budgetRow `json:"budget,omitempty"`
}

func newResult(w string, seed int64, trace bool) *runResult {
	return &runResult{Workload: w, Seed: seed, Trace: trace, Metrics: map[string]measured{}}
}

// set records a metric; with samples the value is their median.
func (r *runResult) set(name string, v float64, samples ...float64) {
	def := metricByName(name)
	if def == nil {
		panic("bench: metric " + name + " is not in the registry")
	}
	if _, dup := r.Metrics[name]; dup {
		panic("bench: metric " + name + " reported twice")
	}
	if len(samples) > 0 {
		v = median(samples)
	}
	r.Metrics[name] = measured{Value: v, Unit: def.Unit, Samples: samples}
}

// check counts one correctness check as an attempted operation.
func (r *runResult) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	}
}

func (r *runResult) failFrac() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// env is what a workload pass runs in.
type env struct {
	seed int64
	sz   sizes
	tr   *tracer // nil on an untraced pass
	res  *runResult
	// selected is false for the reduced-size passes a driver-mode traced
	// run makes over the workloads it was not asked for.
	selected bool
	// shared carries the probes' values to the budget tables; nil when
	// no probes ran.
	shared *probeState
}

// ---------------------------------------------------------------------------
// Small statistics over the harness's own samples.

// median is the middle sample, or the mean of the two middle ones.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile is the nearest-rank order statistic, so the p99 of a step is
// a latency some request had.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func trimFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// ---------------------------------------------------------------------------
// Host accounting.

// cpuSeconds returns this process's user+sys CPU so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

// peakRSSMB returns this process's high-water resident set (Linux reports KB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// timedCall measures one call's wall and CPU seconds.
func timedCall(fn func() error) (wall, cpu float64, err error) {
	c0, t0 := cpuSeconds(), time.Now()
	err = fn()
	return time.Since(t0).Seconds(), cpuSeconds() - c0, err
}

// runUnits is the untraced pass of the simulator workloads: it times
// unit(seed) again and again until about e.sz.measure has passed (at
// least twice), calls after() outside the timing to check what the unit
// returned, and reports the medians. Unit i gets its own seed, except the
// last, which repeats unit 0's so that two runs at one seed can be
// compared in-process.
func runUnits(e *env, unit func(seed int64) (reqs int, err error), after func(i int, seed int64, last bool)) error {
	start := time.Now()
	var longest time.Duration
	var rate, cpuPer []float64
	for i, last := 0, false; !last; i++ {
		// Each unit starts from a collected heap, so that how much of the
		// previous unit's garbage is still around does not decide this
		// unit's GC work or the process's peak RSS.
		runtime.GC()
		t0 := time.Now()
		// Last when one more unit after this one would overrun.
		last = i > 0 && t0.Sub(start)+2*longest > e.sz.measure
		seed := e.seed*1000 + int64(i)
		if last {
			seed = e.seed * 1000
		}
		var reqs int
		wall, cpu, err := timedCall(func() (err error) { reqs, err = unit(seed); return })
		if err != nil {
			e.res.check(false, "unit %d: %v", i, err)
			return err
		}
		rate = append(rate, float64(reqs)/wall)
		cpuPer = append(cpuPer, cpu/float64(reqs)*1e6)
		after(i, seed, last)
		if d := time.Since(t0); d > longest {
			longest = d
		}
	}
	e.res.set("req_per_s", 0, rate...)
	e.res.set("cpu_s_per_mreq", 0, cpuPer...)
	e.res.set("peak_rss_mb", peakRSSMB())
	return nil
}

// best returns the shortest wall time of k calls. The simulator is
// deterministic and the host's noise only ever adds time, so the minimum
// is the steadiest estimate of what a call costs; the traced pass uses
// it for layer costs, which no bound is applied to.
func best(k int, fn func() error) (float64, error) {
	min := math.Inf(1)
	for i := 0; i < k; i++ {
		wall, _, err := timedCall(fn)
		if err != nil {
			return 0, err
		}
		if wall < min {
			min = wall
		}
	}
	return min, nil
}

// goStats is the part of runtime.MemStats the go.* metrics read.
type goStats struct {
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	PauseNs    uint64 `json:"pause_ns"`
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{AllocBytes: ms.TotalAlloc, GCCycles: ms.NumGC, PauseNs: ms.PauseTotalNs}
}

// setGoMetrics reports the go.* metrics for a span of reqs requests.
func (r *runResult) setGoMetrics(before, after goStats, reqs int) {
	if reqs < 1 {
		reqs = 1
	}
	r.set("go.alloc_bytes_per_req", float64(after.AllocBytes-before.AllocBytes)/float64(reqs))
	r.set("go.gc_cycles", float64(after.GCCycles-before.GCCycles))
	r.set("go.gc_pause_total_ms", float64(after.PauseNs-before.PauseNs)/1e6)
}

// ---------------------------------------------------------------------------
// Digests over simulated statistics: floats go in as their bits, so two
// digests are equal only when the simulation behaved identically.

type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}
func (d *digest) int(v int)     { d.u64(uint64(int64(v))) }
func (d *digest) f64(v float64) { d.u64(math.Float64bits(v)) }
func (d *digest) str(s string)  { d.int(len(s)); d.h.Write([]byte(s)) }
func (d *digest) sum() string   { return hex.EncodeToString(d.h.Sum(nil)) }
