// Package predict implements ReTail's latency prediction (§V) and the
// baselines' predictors.
//
// ReTail's model is one ordinary-least-squares linear regression per
// (categorical-feature combination × frequency setting). A separate model
// per frequency matters because service time is not proportional to
// 1/frequency for memory-bound services; Rubik and Gemini assume it is,
// and that assumption is reproduced faithfully in their predictors here
// (they predict at a reference frequency and scale linearly).
//
// Applications with only categorical features (or none that correlate)
// degenerate naturally to per-category (or global) mean service times —
// the paper's "applications with little-to-no variation can be treated as
// applications with a single category."
package predict

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"retail/internal/cpu"
	"retail/internal/linalg"
	"retail/internal/nn"
	"retail/internal/stats"
	"retail/internal/workload"
)

// Predictor estimates a request's service time (seconds) at a frequency
// level from its feature values.
type Predictor interface {
	Predict(lvl cpu.Level, features []float64) float64
}

// Sample is one training observation: the frequency the request ran at,
// its feature values, and the measured service time (§V-C).
type Sample struct {
	Level    cpu.Level
	Features []float64
	Service  float64 // seconds
}

// TrainingSet holds the most recent samples per frequency level in a ring,
// so online retraining always uses the latest data (stale pre-drift
// samples age out).
type TrainingSet struct {
	// mu serializes Clone against Add (and concurrent Clones of one
	// shared calibration set, as the fleet fan-out performs). At/All stay
	// lock-free: they read buffers that sharing freezes (see levelRing.cow).
	mu sync.Mutex
	// rings is indexed by cpu.Level and grown on demand: Add runs once per
	// completed request, and a slice index is the whole lookup.
	rings []levelRing
	cap   int
}

// levelRing is one level's samples.
type levelRing struct {
	buf []Sample
	// head is the ring's oldest slot once the level is full; the logical
	// (oldest-first) order is buf[head:], buf[:head]. A rotating head makes
	// Add O(1) — shift-down eviction would copy the whole ring (with its
	// pointer-bearing feature slices, so write barriers too) on every
	// steady-state sample.
	head int
	// cow marks a buffer (and its feature backings) shared with another
	// set via Clone. Shared arrays are immutable; the first Add to a shared
	// level materializes a private deep copy. Calibration sets are cloned
	// per node/run but most clones retrain only a few levels (many never),
	// so lazy copying removes the dominant allocation of a fleet run
	// without weakening isolation: samples added to any set are never
	// visible to another.
	cow bool
}

// ordered appends the ring's samples to dst, oldest first.
func (r *levelRing) ordered(dst []Sample) []Sample {
	return append(append(dst, r.buf[r.head:]...), r.buf[:r.head]...)
}

// NewTrainingSet returns a set keeping up to capPerLevel samples per
// frequency level (≤ 0 means the paper's 1000).
func NewTrainingSet(capPerLevel int) *TrainingSet {
	if capPerLevel <= 0 {
		capPerLevel = 1000
	}
	return &TrainingSet{cap: capPerLevel}
}

// ring returns the level's ring, or nil if nothing was ever stored there.
func (t *TrainingSet) ring(lvl cpu.Level) *levelRing {
	if lvl < 0 || int(lvl) >= len(t.rings) {
		return nil
	}
	return &t.rings[lvl]
}

// Add records a sample, evicting the oldest at that level when full. The
// feature slice is copied: callers (online training in particular) hand in
// views of live — possibly pooled and recycled — request state, and the
// set must outlive them. Once the ring is full the copy reuses the evicted
// sample's backing array, so steady-state training stays off the allocator.
func (t *TrainingSet) Add(s Sample) {
	t.mu.Lock()
	if int(s.Level) >= len(t.rings) {
		t.rings = append(t.rings, make([]levelRing, int(s.Level)+1-len(t.rings))...)
	}
	r := &t.rings[s.Level]
	if r.cow {
		t.materialize(r)
	}
	if len(r.buf) == t.cap {
		s.Features = append(r.buf[r.head].Features[:0], s.Features...)
		r.buf[r.head] = s
		if r.head++; r.head == t.cap {
			r.head = 0
		}
	} else {
		s.Features = append(make([]float64, 0, len(s.Features)), s.Features...)
		r.buf = append(r.buf, s)
	}
	t.mu.Unlock()
}

// Total returns the total sample count across levels.
func (t *TrainingSet) Total() int {
	n := 0
	for i := range t.rings {
		n += len(t.rings[i].buf)
	}
	return n
}

// At returns the stored samples for one level, oldest first (caller must
// not modify). Until the ring rotates this is a zero-copy view; afterwards
// it materializes the logical order — callers of At are (re)training paths,
// which run orders of magnitude less often than Add.
func (t *TrainingSet) At(lvl cpu.Level) []Sample {
	r := t.ring(lvl)
	if r == nil {
		return nil
	}
	if r.head == 0 {
		return r.buf
	}
	return r.ordered(make([]Sample, 0, len(r.buf)))
}

// All returns every stored sample, by ascending level and oldest first
// within a level.
func (t *TrainingSet) All() []Sample {
	out := make([]Sample, 0, t.Total())
	for i := range t.rings {
		out = t.rings[i].ordered(out)
	}
	return out
}

// materialize replaces one shared level with a private deep copy in
// logical (oldest-first) order, head 0 — exactly the state an eager clone
// would have produced, so every subsequent Add behaves identically. One
// flat backing per level, with each feature view capacity-capped to its
// own span so a later in-place eviction cannot bleed into a neighbor.
// Caller holds mu.
func (t *TrainingSet) materialize(r *levelRing) {
	cp := r.ordered(make([]Sample, 0, t.cap))
	total := 0
	for i := range cp {
		total += len(cp[i].Features)
	}
	flat := make([]float64, 0, total)
	for i := range cp {
		n := len(flat)
		flat = append(flat, cp[i].Features...)
		cp[i].Features = flat[n:len(flat):len(flat)]
	}
	*r = levelRing{buf: cp}
}

// Clone returns an independent copy; experiment harnesses clone the
// calibration set per run so one run's live samples cannot leak into the
// next. The copy is lazy: both sets share the level buffers, marked
// copy-on-write, and whichever side Adds to a shared level first pays for
// its own private copy then. Cloning the same set from several goroutines
// is safe (the fleet fan-out does); a clone itself is single-goroutine
// like any other TrainingSet.
func (t *TrainingSet) Clone() *TrainingSet {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.rings {
		// An empty ring shares nothing and must not pay materialize's
		// full-capacity buffer on its first Add.
		t.rings[i].cow = len(t.rings[i].buf) > 0
	}
	return &TrainingSet{rings: append([]levelRing(nil), t.rings...), cap: t.cap}
}

// ---------------------------------------------------------------------------
// ReTail's linear model.

// FeatureLayout splits selected feature indices by kind; it is derived
// from the feature-selection result.
type FeatureLayout struct {
	Specs    []workload.FeatureSpec
	Selected []int // indices into Specs
}

// split returns the categorical and numerical selected indices.
func (l FeatureLayout) split() (cat, num []int) {
	for _, j := range l.Selected {
		if l.Specs[j].Kind == workload.Categorical {
			cat = append(cat, j)
		} else {
			num = append(num, j)
		}
	}
	return cat, num
}

// Combos returns the number of categorical combinations (1 when no
// categorical feature is selected).
func (l FeatureLayout) Combos() int {
	n := 1
	for _, j := range l.Selected {
		if l.Specs[j].Kind == workload.Categorical {
			n *= l.Specs[j].Categories
		}
	}
	return n
}

// comboOf maps a feature vector to its categorical-combination index.
func (l FeatureLayout) comboOf(features []float64, cat []int) int {
	idx, stride := 0, 1
	for _, j := range cat {
		c := int(features[j])
		if c < 0 {
			c = 0
		}
		if c >= l.Specs[j].Categories {
			c = l.Specs[j].Categories - 1
		}
		idx += c * stride
		stride *= l.Specs[j].Categories
	}
	return idx
}

// LinearModel is the fitted ReTail predictor: k × Πaᵢ separate linear
// functions (§V-A), with mean fallbacks for sparse cells. The model is a
// tiny array of coefficients — the paper notes it fits in L1 cache.
type LinearModel struct {
	layout FeatureLayout
	cat    []int
	num    []int
	levels int

	// coef[combo*levels+level] holds [intercept, a₁ … aₘ], or nil when the
	// cell fell back to a mean.
	coef [][]float64
	// cellMean[combo*levels+level] and its validity.
	cellMean []float64
	cellOK   []bool
	// levelMean[level] global per-level fallback.
	levelMean  []float64
	levelOK    []bool
	globalMean float64

	// TrainDuration is the wall-clock cost of the fit — the quantity
	// Table IV compares against neural-network training time.
	TrainDuration time.Duration
}

// FitLinear trains ReTail's predictor from the training set. It requires
// at least one sample overall; sparse (combo, level) cells degrade to
// means rather than failing, because online operation must always yield a
// usable model.
func FitLinear(set *TrainingSet, layout FeatureLayout, levels int) (*LinearModel, error) {
	if set.Total() == 0 {
		return nil, errors.New("predict: empty training set")
	}
	if levels <= 0 {
		return nil, errors.New("predict: need a positive level count")
	}
	start := time.Now()
	cat, num := layout.split()
	combos := layout.Combos()
	m := &LinearModel{
		layout: layout, cat: cat, num: num, levels: levels,
		coef:      make([][]float64, combos*levels),
		cellMean:  make([]float64, combos*levels),
		cellOK:    make([]bool, combos*levels),
		levelMean: make([]float64, levels),
		levelOK:   make([]bool, levels),
	}
	// Bucket samples.
	buckets := make(map[int][]Sample)
	var globalSum float64
	var globalN int
	levelSum := make([]float64, levels)
	levelN := make([]int, levels)
	for lvl := cpu.Level(0); int(lvl) < levels; lvl++ {
		for _, s := range set.At(lvl) {
			key := m.cellKey(m.layout.comboOf(s.Features, cat), int(lvl))
			buckets[key] = append(buckets[key], s)
			globalSum += s.Service
			globalN++
			levelSum[lvl] += s.Service
			levelN[lvl]++
		}
	}
	if globalN == 0 {
		return nil, errors.New("predict: no samples within the level range")
	}
	m.globalMean = globalSum / float64(globalN)
	for l := 0; l < levels; l++ {
		if levelN[l] > 0 {
			m.levelMean[l] = levelSum[l] / float64(levelN[l])
			m.levelOK[l] = true
		}
	}
	for key, ss := range buckets {
		mean := 0.0
		for _, s := range ss {
			mean += s.Service
		}
		mean /= float64(len(ss))
		m.cellMean[key] = mean
		m.cellOK[key] = true
		if len(num) == 0 || len(ss) < len(num)+2 {
			continue // mean cell
		}
		feats := make([][]float64, len(ss))
		ys := make([]float64, len(ss))
		for i, s := range ss {
			row := make([]float64, len(num))
			for a, j := range num {
				row[a] = s.Features[j]
			}
			feats[i] = row
			ys[i] = s.Service
		}
		dm, err := linalg.DesignMatrix(feats)
		if err != nil {
			continue
		}
		beta, err := linalg.OLS(dm, ys)
		if err != nil {
			continue
		}
		m.coef[key] = beta
	}
	m.TrainDuration = time.Since(start)
	return m, nil
}

func (m *LinearModel) cellKey(combo, level int) int { return combo*m.levels + level }

// Predict implements Predictor with graceful degradation: fitted cell →
// cell mean → per-level mean → global mean.
func (m *LinearModel) Predict(lvl cpu.Level, features []float64) float64 {
	l := int(lvl)
	if l < 0 {
		l = 0
	}
	if l >= m.levels {
		l = m.levels - 1
	}
	key := m.cellKey(m.layout.comboOf(features, m.cat), l)
	if beta := m.coef[key]; beta != nil {
		pred := beta[0]
		for a, j := range m.num {
			pred += beta[a+1] * features[j]
		}
		if pred > 0 {
			return pred
		}
		// A negative extrapolation falls back to the cell mean.
	}
	if m.cellOK[key] {
		return m.cellMean[key]
	}
	if m.levelOK[l] {
		return m.levelMean[l]
	}
	return m.globalMean
}

// ---------------------------------------------------------------------------
// NN predictor (Gemini and the Table IV NN-G / NN-T variants).

// NNModel wraps a neural network trained at a reference frequency and
// scales predictions proportionally with frequency — the assumption Gemini
// makes and the paper criticizes for non-compute-bound services.
type NNModel struct {
	net      *nn.Network
	grid     *cpu.Grid
	refLevel cpu.Level
	inputs   []int // feature indices used as network inputs

	TrainDuration time.Duration
}

// FitNN trains a network on the reference level's samples using the given
// feature indices as inputs.
func FitNN(set *TrainingSet, grid *cpu.Grid, cfg nn.Config, refLevel cpu.Level, inputs []int) (*NNModel, error) {
	ss := set.At(refLevel)
	if len(ss) == 0 {
		return nil, fmt.Errorf("predict: no samples at reference level %d", refLevel)
	}
	if len(inputs) == 0 {
		return nil, errors.New("predict: NN needs at least one input feature")
	}
	cfg.InputDim = len(inputs)
	net, err := nn.New(cfg)
	if err != nil {
		return nil, err
	}
	xs := make([][]float64, len(ss))
	ys := make([]float64, len(ss))
	for i, s := range ss {
		row := make([]float64, len(inputs))
		for a, j := range inputs {
			row[a] = s.Features[j]
		}
		xs[i] = row
		ys[i] = s.Service
	}
	if err := net.Fit(xs, ys); err != nil {
		return nil, err
	}
	m := &NNModel{net: net, grid: grid, refLevel: refLevel, inputs: inputs}
	m.TrainDuration = net.TrainDuration
	return m, nil
}

// NNScratch is the working memory of NNModel.Base. It belongs to the
// caller because a trained model is shared read-only by every sweep cell and
// fleet node that uses it. The zero value is ready; not for concurrent use.
type NNScratch struct {
	row []float64
	net nn.Scratch
}

// Base runs the network: its estimate of the service time at the reference
// frequency, clamped at zero. It depends on the request alone, so a caller
// asking about several frequencies runs it once and Scales the result.
func (m *NNModel) Base(s *NNScratch, features []float64) float64 {
	s.row = s.row[:0]
	for _, j := range m.inputs {
		s.row = append(s.row, features[j])
	}
	base := m.net.MustPredict(&s.net, s.row)
	if base < 0 {
		base = 0
	}
	return base
}

// Scale takes a Base estimate to lvl by f_ref/f (the latency ∝ 1/frequency
// assumption).
func (m *NNModel) Scale(base float64, lvl cpu.Level) float64 {
	return base * m.grid.Freq(m.refLevel) / m.grid.Freq(m.grid.Clamp(lvl))
}

// Predict implements Predictor: Base scaled to lvl, on a throwaway scratch.
func (m *NNModel) Predict(lvl cpu.Level, features []float64) float64 {
	var s NNScratch
	return m.Scale(m.Base(&s, features), lvl)
}

// ---------------------------------------------------------------------------
// Evaluation.

// Metrics summarizes predictor accuracy on a sample set.
type Metrics struct {
	R2   float64
	RMSE float64 // seconds
	N    int
}

// Evaluate scores a predictor against observed samples.
func Evaluate(p Predictor, samples []Sample) (Metrics, error) {
	if len(samples) < 2 {
		return Metrics{}, stats.ErrTooFewSamples
	}
	obs := make([]float64, len(samples))
	pred := make([]float64, len(samples))
	for i, s := range samples {
		obs[i] = s.Service
		pred[i] = p.Predict(s.Level, s.Features)
	}
	r2, err := stats.R2(obs, pred)
	if err != nil {
		return Metrics{}, err
	}
	rmse, err := stats.RMSE(obs, pred)
	if err != nil {
		return Metrics{}, err
	}
	return Metrics{R2: r2, RMSE: rmse, N: len(samples)}, nil
}

// ---------------------------------------------------------------------------
// Drift detection (§V-D).

// DriftDetector watches live prediction error and reports when RMSE/QoS
// degrades more than Threshold above the post-training baseline —
// resource reallocation, colocation interference or system tasks have
// changed service times and the model must be retrained.
type DriftDetector struct {
	QoS       float64 // seconds
	Threshold float64 // RMSE/QoS increase that triggers retraining (paper: 0.05)

	baseline    float64
	baselineSet bool

	errs []float64 // recent squared errors, ring
	next int
	full bool

	// Incremental window sum with a rigorous bound on its distance from
	// the fresh left-to-right sum Current computes. Drifted uses it to
	// skip the O(window) pass when the window is provably far from the
	// threshold; whenever the margin cannot certify the outcome, the
	// exact sum is recomputed, so results are bit-identical either way.
	sumInc float64
	sumErr float64

	// onDrift, when set, fires once per drift episode: the first time
	// Drifted observes the threshold crossed since the last Reset.
	// Telemetry hooks a drift-event counter here.
	onDrift  func()
	notified bool
}

// OnDrift registers fn to be called the first time Drifted crosses the
// threshold after each Reset — one call per drift episode, not per
// query. Used to wire a telemetry counter without coupling detection to
// the metrics substrate.
func (d *DriftDetector) OnDrift(fn func()) { d.onDrift = fn }

// NewDriftDetector returns a detector with a window of the given size
// (≤ 0 means 200 observations).
func NewDriftDetector(qos, threshold float64, window int) *DriftDetector {
	if window <= 0 {
		window = 200
	}
	if threshold <= 0 {
		threshold = 0.05
	}
	return &DriftDetector{QoS: qos, Threshold: threshold, errs: make([]float64, window)}
}

// SetBaseline records the healthy-state RMSE/QoS to compare against,
// normally right after (re)training.
func (d *DriftDetector) SetBaseline(rmseOverQoS float64) {
	d.baseline = rmseOverQoS
	d.baselineSet = true
}

// Baseline returns the current healthy-state RMSE/QoS reference and
// whether one has been set.
func (d *DriftDetector) Baseline() (float64, bool) { return d.baseline, d.baselineSet }

// Reset clears the observation window (but keeps the baseline) and
// re-arms the OnDrift notification.
func (d *DriftDetector) Reset() {
	d.next, d.full = 0, false
	d.notified = false
	d.sumInc, d.sumErr = 0, 0
}

// Observe records one (predicted, actual) service-time pair.
func (d *DriftDetector) Observe(predicted, actual float64) {
	e := predicted - actual
	sq := e * e
	var old float64
	if d.full {
		old = d.errs[d.next]
	}
	d.errs[d.next] = sq
	d.next++
	if d.next == len(d.errs) {
		d.next = 0
		d.full = true
	}
	// Each incremental step introduces at most two roundings; 4·eps of
	// the involved magnitudes over-covers them. On wrap, resync with a
	// fresh pass so the bound cannot grow without limit.
	const eps = 2.3e-16
	d.sumInc += sq - old
	d.sumErr += 4 * eps * (math.Abs(d.sumInc) + sq + old)
	if d.next == 0 {
		fresh := 0.0
		for _, v := range d.errs {
			fresh += v
		}
		d.sumInc = fresh
		d.sumErr = 2 * eps * float64(len(d.errs)) * fresh
	}
}

// Current returns the windowed RMSE/QoS and whether enough data exists.
func (d *DriftDetector) Current() (float64, bool) {
	n := d.next
	if d.full {
		n = len(d.errs)
	}
	if n < len(d.errs)/4 || n < 2 {
		return 0, false
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.errs[i]
	}
	mse := sum / float64(n)
	return math.Sqrt(mse) / d.QoS, true
}

// Drifted reports whether the current RMSE/QoS exceeds the baseline by
// more than Threshold.
func (d *DriftDetector) Drifted() bool {
	if !d.baselineSet {
		return false
	}
	// Fast path: when the incremental window sum sits provably below the
	// drift threshold — under every rounding discrepancy the margin
	// accounts for, with generous slack for the sqrt/divide roundings in
	// Current — the exact computation could only return "not drifted",
	// so skip it. This check runs once per completed request; the exact
	// O(window) pass then only runs near or past the threshold.
	n := d.next
	if d.full {
		n = len(d.errs)
	}
	if n < len(d.errs)/4 || n < 2 {
		return false
	}
	lim := d.QoS * (d.baseline + d.Threshold)
	lim *= lim
	const eps = 2.3e-16
	slack := (d.sumErr + 4*eps*float64(n)*(math.Abs(d.sumInc)+d.sumErr)) / float64(n)
	if d.sumInc/float64(n)+slack+1e-12*lim < lim {
		return false
	}
	cur, ok := d.Current()
	drifted := ok && cur-d.baseline > d.Threshold
	if drifted && !d.notified {
		d.notified = true
		if d.onDrift != nil {
			d.onDrift()
		}
	}
	return drifted
}
