package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"retail/internal/manager"
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// The simulator against closed forms that owe nothing to this code: one
// worker pinned at the maximum frequency under Poisson arrivals is an
// M/G/1 queue, so its mean sojourn is Pollaczek–Khinchine's, and its
// socket draws the uncore constant plus a busy-fraction mix of the core's
// active and idle power. The moments come from the application's own
// Generate at f_max, not from the run.

// oracleCell is one (app, ρ) run: the measured sojourns in completion
// order, the average power, and the closed-form inputs.
type oracleCell struct {
	app      string
	rho      float64
	es, es2  float64   // E[S], E[S²] in seconds at f_max
	sojourns []float64 // measurement-window sojourns, completion order
	powerW   float64
}

var (
	oracleOnce  sync.Once
	oracleCells []oracleCell
	oracleErr   error
)

// mg1Cells runs the nine cells once for both oracles: Masstree, Moses and
// Xapian at ρ = 0.3, 0.6 and 0.8, each for about 40 000 completions.
func mg1Cells(t *testing.T) []oracleCell {
	t.Helper()
	oracleOnce.Do(func() {
		const completions = 40000
		platform := DefaultPlatform().WithWorkers(1)
		for _, name := range []string{"masstree", "moses", "xapian"} {
			app := workload.ByName(name)
			// E[S] and E[S²] from 200 000 draws of the app's generator at
			// f_max (ServiceBase is the service time there).
			rng := rand.New(rand.NewSource(99))
			var s1, s2 float64
			const draws = 200000
			for i := 0; i < draws; i++ {
				s := float64(app.Generate(rng).ServiceBase)
				s1 += s
				s2 += s * s
			}
			es, es2 := s1/draws, s2/draws
			for _, rho := range []float64{0.3, 0.6, 0.8} {
				lambda := rho / es
				dur := sim.Duration(completions / lambda)
				warmup := dur / 10
				c := oracleCell{app: name, rho: rho, es: es, es2: es2}
				res, err := Run(RunConfig{
					App: app, Platform: platform, Manager: manager.NewMaxFreq(),
					RPS: lambda, Warmup: warmup, Duration: dur, Seed: 11,
					Instrument: func(e *sim.Engine, s *server.Server) {
						s.Hooks = sojournTap{Hooks: s.Hooks, from: warmup, to: warmup + dur, out: &c.sojourns}
					},
				})
				if err != nil {
					oracleErr = err
					return
				}
				c.powerW = res.AvgPowerW
				oracleCells = append(oracleCells, c)
			}
		}
	})
	if oracleErr != nil {
		t.Fatal(oracleErr)
	}
	return oracleCells
}

// sojournTap records the sojourn of every request generated in [from, to)
// as it completes.
type sojournTap struct {
	server.Hooks
	from, to sim.Time
	out      *[]float64
}

func (h sojournTap) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	if r.Gen >= h.from && r.Gen < h.to {
		*h.out = append(*h.out, float64(r.Sojourn()))
	}
	h.Hooks.Complete(e, w, r)
}

// TestGivenOneMaxFreqWorkerUnderPoisson_WhenFortyThousandComplete_ThenMeanSojournIsPollaczekKhinchine:
// GIVEN one worker under MaxFreq and Poisson arrivals at ρ ∈ {0.3, 0.6,
// 0.8} for Masstree, Moses and Xapian, WHEN about 40 000 requests
// complete, THEN the mean sojourn lies in the 99 % batch-means confidence
// band (30 batches) around E[S] + λE[S²] / (2(1 − ρ)).
func TestGivenOneMaxFreqWorkerUnderPoisson_WhenFortyThousandComplete_ThenMeanSojournIsPollaczekKhinchine(t *testing.T) {
	const batches = 30
	const t99 = 2.756 // Student's t, 29 degrees of freedom, two-sided 99 %
	for _, c := range mg1Cells(t) {
		lambda := c.rho / c.es
		pk := c.es + lambda*c.es2/(2*(1-c.rho))
		n := len(c.sojourns) / batches
		var means []float64
		for b := 0; b < batches; b++ {
			var sum float64
			for _, s := range c.sojourns[b*n : (b+1)*n] {
				sum += s
			}
			means = append(means, sum/float64(n))
		}
		mean, sd := meanSD(means)
		half := t99 * sd / math.Sqrt(batches)
		t.Logf("%-8s ρ=%.1f  %d completions  mean %.4gs  P-K %.4gs  (%+.2f%%, band ±%.2f%%)",
			c.app, c.rho, len(c.sojourns), mean, pk, 100*(mean/pk-1), 100*half/pk)
		if math.Abs(mean-pk) > half {
			t.Errorf("%s at ρ=%.1f: mean sojourn %.4gs outside P-K %.4gs ± %.3gs", c.app, c.rho, mean, pk, half)
		}
	}
}

// TestGivenOneMaxFreqWorkerUnderPoisson_WhenFortyThousandComplete_ThenAveragePowerIsTheLinearEnergyIdentity:
// GIVEN the same nine cells, WHEN about 40 000 requests complete, THEN
// the socket's average power is UncoreW + ρ·ActiveW(f_max) +
// (1 − ρ)·IdleTotalW within 0.5 %, the linear form "Novel Power and
// Completion Time Models" (PAPERS.md) validates.
func TestGivenOneMaxFreqWorkerUnderPoisson_WhenFortyThousandComplete_ThenAveragePowerIsTheLinearEnergyIdentity(t *testing.T) {
	p := DefaultPlatform()
	for _, c := range mg1Cells(t) {
		want := p.Power.UncoreW + c.rho*p.Power.ActiveW(p.Grid.MaxFreq()) + (1-c.rho)*p.Power.IdleTotalW()
		t.Logf("%-8s ρ=%.1f  power %.4f W  identity %.4f W  (%+.2f%%)", c.app, c.rho, c.powerW, want, 100*(c.powerW/want-1))
		if math.Abs(c.powerW/want-1) > 0.005 {
			t.Errorf("%s at ρ=%.1f: average power %.4f W, identity %.4f W", c.app, c.rho, c.powerW, want)
		}
	}
}

func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}
