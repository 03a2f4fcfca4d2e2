package policy

import (
	"sort"

	"retail/internal/cpu"
	"retail/internal/stats"
)

// RubikTail is Rubik's latency estimator (Kasture et al., MICRO'15): a
// distribution tail over an offline service-time profile at max
// frequency, scaled proportionally to the target frequency. It is not
// feature-conditioned, which is exactly why Rubik is conservative
// (largest RMSE of the baselines, Table V).
type RubikTail struct {
	profile []float64 // ascending
	// quantile is the distribution quantile used as each request's
	// latency prediction (0–1).
	quantile float64
}

// NewRubikTail copies and sorts the profile. A quantile outside the open
// interval (0,1) — including NaN, which fails every comparison — falls
// back to fallbackQuantile, as in EETLThreshold: both estimators
// interpolate a sorted profile, and an out-of-range quantile would index
// past its ends. Params.Validate rejects such quantiles, so the fallback
// never fires through New.
func NewRubikTail(profileAtMax []float64, quantile float64) *RubikTail {
	p := make([]float64, len(profileAtMax))
	copy(p, profileAtMax)
	sort.Float64s(p)
	return &RubikTail{profile: p, quantile: clampQuantile(quantile)}
}

// clampQuantile maps any quantile outside (0,1) — NaN included — to the
// fallback shared by the profile-driven estimators.
func clampQuantile(q float64) float64 {
	if !(q > 0 && q < 1) { // negated so NaN (incomparable) also falls back
		return fallbackQuantile
	}
	return q
}

// Tail returns the profiled tail quantile scaled proportionally from
// maxFreq down to freq (Rubik assumes service time ∝ 1/frequency).
func (t *RubikTail) Tail(maxFreq, freq float64) float64 {
	if len(t.profile) == 0 {
		return 0
	}
	q := stats.PercentileSorted(t.profile, t.quantile*100)
	return q * maxFreq / freq
}

// GeminiLevel is step one of Gemini's two-step DVFS: pick the lowest
// frequency whose predicted service time fits the remaining budget
// (falling back to maxLvl), then return the prediction at the chosen
// level for scheduling the boost checkpoint. predict is called once per
// tried level plus once for the final estimate — the exact consultation
// pattern of the original implementation, so adapters that charge
// inference costs per call count identically.
func GeminiLevel(budget float64, maxLvl cpu.Level, predict func(cpu.Level) float64) (cpu.Level, float64) {
	chosen := maxLvl
	for lvl := cpu.Level(0); lvl <= maxLvl; lvl++ {
		if predict(lvl) <= budget {
			chosen = lvl
			break
		}
	}
	return chosen, predict(chosen)
}

// GeminiAdmit is Gemini's arrival-time load shedding: admit the request
// only when its predicted completion — elapsed time since generation,
// plus the queueing ahead of it, plus its own predicted service, all at
// max frequency — still meets QoS.
func GeminiAdmit(elapsed, queueAhead, svcAtMax, qos float64) bool {
	return elapsed+queueAhead+svcAtMax <= qos
}

// EETLThreshold derives EETL's long-request threshold from an offline
// service-time profile at max frequency: the quantile service time
// scaled to the slow level's frequency, since that is the speed requests
// actually execute at before the threshold crossing. A quantile outside
// (0,1) — NaN included — falls back (see clampQuantile); an empty
// profile yields 0 (no boosting).
func EETLThreshold(profileAtMax []float64, quantile, maxFreq, slowFreq float64) Duration {
	quantile = clampQuantile(quantile)
	if len(profileAtMax) == 0 {
		return 0
	}
	p := make([]float64, len(profileAtMax))
	copy(p, profileAtMax)
	sort.Float64s(p)
	base := stats.PercentileSorted(p, quantile*100)
	return base * maxFreq / slowFreq
}

// Rubik is the statistical baseline (Kasture et al., MICRO'15): Algorithm 1
// where every member's prediction is the profiled distribution tail scaled
// to the candidate frequency, against the fixed QoS (Rubik has no monitor).
type Rubik struct {
	tail *RubikTail
	grid *cpu.Grid
	qos  Duration
	pipe tailPipeline
	// estimates counts tail estimates computed (Estimate calls).
	estimates uint64
}

// tailPipeline substitutes Rubik's tail estimate for the feature-based
// prediction of the pipeline it wraps. The estimate does not depend on the
// request, so it is computed — and counted — once per level Algorithm 1
// tries; cachedLvl is -1 before the first.
type tailPipeline struct {
	Pipeline
	r          *Rubik
	cachedLvl  int
	cachedTail float64
}

func (p *tailPipeline) Predict(lvl cpu.Level, _ int) float64 {
	if int(lvl) != p.cachedLvl {
		p.cachedLvl = int(lvl)
		p.cachedTail = p.r.Estimate(lvl)
	}
	return p.cachedTail
}

func (r *Rubik) Name() string { return "rubik" }

// Choose runs Algorithm 1 over p with the tail estimate standing in for
// every member's prediction and returns the level and the binding member's
// index.
func (r *Rubik) Choose(now Time, p Pipeline) (cpu.Level, int) {
	r.pipe.Pipeline, r.pipe.cachedLvl = p, -1
	lvl, bind := Alg1(&r.pipe, now, r.qos, r.grid.MaxLevel(), false)
	r.pipe.Pipeline = nil
	return lvl, bind
}

func (r *Rubik) Decide(now Time, p Pipeline) (cpu.Level, float64) {
	lvl, _ := r.Choose(now, p)
	return lvl, r.Tail(lvl)
}

// Tail is the latency estimate at lvl: the profiled tail scaled from max
// frequency to lvl's.
func (r *Rubik) Tail(lvl cpu.Level) float64 { return r.tail.Tail(r.grid.MaxFreq(), r.grid.Freq(lvl)) }

// Estimate is Tail counted as one inference (the statistical table
// lookup the simulator charges).
func (r *Rubik) Estimate(lvl cpu.Level) float64 {
	r.estimates++
	return r.Tail(lvl)
}

// Estimates returns how many estimates were counted.
func (r *Rubik) Estimates() uint64 { return r.estimates }

func (r *Rubik) Observe(at Time, sojourn float64) {}
func (r *Rubik) Tick(now Time)                    {}
func (r *Rubik) QoSPrime() Duration               { return r.qos }

// Gemini is the NN baseline's decision posture: size the frequency to the
// head request alone (GeminiLevel), no latency monitor (QoS′ pinned to
// QoS), a two-step boost checkpoint at a fraction of the predicted
// service time, and arrival-time shedding of requests predicted to miss
// QoS (GeminiAdmit) unless Params.Gemini.KeepOnPredictedMiss.
type Gemini struct {
	maxLvl    cpu.Level
	qos       Duration
	boostFrac float64
	keepMiss  bool
}

func (g *Gemini) Name() string { return "gemini" }

// ShedsPredictedMisses reports whether the simulator adapter drops, at
// arrival, requests GeminiAdmit predicts to miss QoS. The live runtime
// sheds through Params.Degrade instead.
func (g *Gemini) ShedsPredictedMisses() bool { return !g.keepMiss }

func (g *Gemini) Decide(now Time, p Pipeline) (cpu.Level, float64) {
	budget := g.qos - (now - p.Gen(0))
	return GeminiLevel(budget, g.maxLvl, func(lvl cpu.Level) float64 {
		return p.Predict(lvl, 0)
	})
}

// Checkpoint is the delay after which a request still running is boosted
// to max frequency.
func (g *Gemini) Checkpoint(predicted float64) Duration { return g.boostFrac * predicted }

// Boost arms the checkpoint unless the request already runs at max or
// its prediction is not positive.
func (g *Gemini) Boost(chosen cpu.Level, predicted float64) (Duration, cpu.Level, bool) {
	if chosen >= g.maxLvl || predicted <= 0 {
		return 0, 0, false
	}
	return g.Checkpoint(predicted), g.maxLvl, true
}

func (g *Gemini) Observe(at Time, sojourn float64) {}
func (g *Gemini) Tick(now Time)                    {}
func (g *Gemini) QoSPrime() Duration               { return g.qos }

// EETL is the progress-threshold baseline: every request starts at the
// slow level; one still running at the threshold crossing is flagged long
// and boosted to max. The paper's EETL uses a predetermined threshold;
// here it is the profile quantile's service time at the slow level's
// frequency (EETLThreshold), so the two are chosen together.
type EETL struct {
	maxLvl    cpu.Level
	slow      cpu.Level
	qos       Duration
	threshold Duration
}

func (e *EETL) Name() string { return "eetl" }

func (e *EETL) Decide(now Time, p Pipeline) (cpu.Level, float64) {
	return e.slow, p.Predict(e.slow, 0)
}

// Slow returns the level every request starts at.
func (e *EETL) Slow() cpu.Level { return e.slow }

// Boost arms the long-request threshold: the execution time past which a
// request is long (none for a zero threshold).
func (e *EETL) Boost(cpu.Level, float64) (Duration, cpu.Level, bool) {
	if e.threshold <= 0 {
		return 0, 0, false
	}
	return e.threshold, e.maxLvl, true
}

func (e *EETL) Observe(at Time, sojourn float64) {}
func (e *EETL) Tick(now Time)                    {}
func (e *EETL) QoSPrime() Duration               { return e.qos }
