package policy

import (
	"math/rand"
	"testing"

	"retail/internal/cpu"
)

// slicePipeline is a test Pipeline over parallel slices: svc[i][lvl] is
// member i's predicted service at lvl.
type slicePipeline struct {
	gens     []float64
	svc      [][]float64
	progress float64
}

func (p *slicePipeline) Len() int                             { return len(p.gens) }
func (p *slicePipeline) Gen(i int) Time                       { return p.gens[i] }
func (p *slicePipeline) Predict(lvl cpu.Level, i int) float64 { return p.svc[i][int(lvl)] }
func (p *slicePipeline) HeadProgress() float64                { return p.progress }

// TestAlg1PicksLowestSufficientLevel: the first level under which every
// member meets the budget wins, and the binding member is whoever ruled
// out the level below.
func TestAlg1PicksLowestSufficientLevel(t *testing.T) {
	// Three levels. Head fits at every level; the queued request only
	// fits from level 1 up.
	p := &slicePipeline{
		gens: []float64{0, 0},
		svc: [][]float64{
			{0.004, 0.003, 0.002},
			{0.007, 0.004, 0.003},
		},
	}
	// now=0, budget=0.008: level 0 gives queue member 0.004+0.007=0.011 >
	// 0.008 (binding = member 1); level 1 gives 0.003+0.004=0.007 ≤ 0.008.
	lvl, bind := Alg1(p, 0, 0.008, 2, false)
	if lvl != 1 || bind != 1 {
		t.Fatalf("lvl=%d bind=%d, want lvl=1 bind=1", lvl, bind)
	}
}

// TestAlg1HeadProgressDiscount: completed work shrinks the head's
// remaining service, letting a slower level pass.
func TestAlg1HeadProgressDiscount(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0},
		svc:  [][]float64{{0.010, 0.004}},
	}
	if lvl, _ := Alg1(p, 0, 0.008, 1, false); lvl != 1 {
		t.Fatalf("no progress: lvl=%d, want fallback 1", lvl)
	}
	p.progress = 0.5 // remaining 0.005 ≤ 0.008
	if lvl, bind := Alg1(p, 0, 0.008, 1, false); lvl != 0 || bind != 0 {
		t.Fatalf("progress 0.5: lvl=%d bind=%d, want 0,0", lvl, bind)
	}
}

// TestAlg1MaxLevelFallback: when no level suffices the max level is
// returned with the binding member of the last failed check.
func TestAlg1MaxLevelFallback(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0, 0},
		svc: [][]float64{
			{0.001, 0.001},
			{0.100, 0.100},
		},
	}
	lvl, bind := Alg1(p, 0, 0.008, 2, false)
	if lvl != 2 || bind != 1 {
		t.Fatalf("lvl=%d bind=%d, want max fallback 2 binding member 1", lvl, bind)
	}
}

// TestAlg1QueueingDelayAccumulates: each queued member's check includes
// the predicted drain of everything ahead of it.
func TestAlg1QueueingDelayAccumulates(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0, 0, 0},
		svc: [][]float64{
			{0.003, 0.002},
			{0.003, 0.002},
			{0.003, 0.002},
		},
	}
	// Level 0: last member sees 0.009 > 0.008; level 1: 0.006 ≤ 0.008.
	lvl, bind := Alg1(p, 0, 0.008, 2, false)
	if lvl != 1 || bind != 2 {
		t.Fatalf("lvl=%d bind=%d, want 1,2", lvl, bind)
	}
}

// TestAlg1ElapsedWaitCounts: time already waited since generation eats
// into the budget.
func TestAlg1ElapsedWaitCounts(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0},
		svc:  [][]float64{{0.005, 0.002}},
	}
	if lvl, _ := Alg1(p, 0.001, 0.008, 1, false); lvl != 0 {
		t.Fatal("0.001+0.005 ≤ 0.008 must pass at level 0")
	}
	if lvl, _ := Alg1(p, 0.004, 0.008, 1, false); lvl != 1 {
		t.Fatal("0.004+0.005 > 0.008 must fall back")
	}
}

// TestAlg1HeadOnly: the ablation ignores the queue entirely.
func TestAlg1HeadOnly(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0, 0},
		svc: [][]float64{
			{0.002, 0.001},
			{0.100, 0.100}, // would force the fallback if examined
		},
	}
	if lvl, _ := Alg1(p, 0, 0.008, 2, true); lvl != 0 {
		t.Fatal("headOnly must ignore the hopeless queued member")
	}
	if lvl, _ := Alg1(p, 0, 0.008, 2, false); lvl != 2 {
		t.Fatal("full pipeline must see the hopeless queued member")
	}
}

// firstMiss is the per-level oracle for Alg1: the first member, in FCFS
// order, that misses the budget at lvl once everything ahead of it drains,
// or -1 when every member examined meets it. headOnly examines the head
// alone.
func firstMiss(p *slicePipeline, now, budget float64, lvl cpu.Level, headOnly bool) int {
	svc := p.svc[0][lvl] * (1 - p.progress)
	if svc < 0 {
		svc = 0
	}
	if now-p.gens[0]+svc > budget {
		return 0
	}
	if headOnly {
		return -1
	}
	sum := svc
	for i := 1; i < len(p.gens); i++ {
		s := p.svc[i][lvl]
		if now-p.gens[i]+sum+s > budget {
			return i
		}
		sum += s
	}
	return -1
}

// TestAlg1Properties checks Algorithm 1 on random pipelines — depth 1–64,
// random generation times, head progress and budgets, per-level
// predictions that fall with level or vary arbitrarily — against five
// properties:
//   - minimality: every level below the answer has a member that misses
//     the budget, and the answer itself has none unless it is the max;
//   - budget monotonicity: a larger budget never raises the level;
//   - queue monotonicity: appending a member never lowers the level;
//   - binding correctness: the binding member is the first to miss at the
//     level below the answer (the head when the answer is level 0);
//   - the headOnly ablation never answers above the full pipeline.
func TestAlg1Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	answers := map[cpu.Level]int{}
	// member draws one member's generation time and per-level predictions:
	// a base service time scaled by a factor falling from 2.1 at level 0
	// to 1 at the top, or by an arbitrary factor per level.
	member := func(now float64, levels int, monotone bool) (float64, []float64) {
		base := (0.5 + rng.Float64()*4) * 1e-3
		svc := make([]float64, levels)
		for l := range svc {
			f := 0.5 + rng.Float64()*2
			if monotone {
				f = 2.1 - 1.1*float64(l)/float64(levels-1)
			}
			svc[l] = base * f
		}
		return now - rng.Float64()*20e-3, svc
	}
	for draw := 0; draw < 2000; draw++ {
		levels := 2 + rng.Intn(11)
		maxLvl := cpu.Level(levels - 1)
		monotone := draw%2 == 0
		now := 1.0
		p := &slicePipeline{progress: rng.Float64()}
		for n := 1 + rng.Intn(64); len(p.gens) < n; {
			gen, svc := member(now, levels, monotone)
			p.gens, p.svc = append(p.gens, gen), append(p.svc, svc)
		}
		// Budgets up to the whole pipeline's drain at the slowest level.
		total := 20e-3
		for _, svc := range p.svc {
			total += svc[0]
		}
		budget := rng.Float64() * total

		lvl, bind := Alg1(p, now, budget, maxLvl, false)
		answers[lvl]++
		for l := cpu.Level(0); l < lvl; l++ {
			if firstMiss(p, now, budget, l, false) < 0 {
				t.Fatalf("draw %d: answered level %d but level %d meets the budget", draw, lvl, l)
			}
		}
		if lvl < maxLvl && firstMiss(p, now, budget, lvl, false) >= 0 {
			t.Fatalf("draw %d: answered level %d, where member %d misses the budget", draw, lvl, firstMiss(p, now, budget, lvl, false))
		}
		wantBind := 0
		if lvl > 0 {
			wantBind = firstMiss(p, now, budget, lvl-1, false)
		}
		if bind != wantBind {
			t.Fatalf("draw %d: level %d binding member %d, want %d", draw, lvl, bind, wantBind)
		}
		if more, _ := Alg1(p, now, budget*(1+rng.Float64()), maxLvl, false); more > lvl {
			t.Fatalf("draw %d: a larger budget raised the level from %d to %d", draw, lvl, more)
		}
		if head, _ := Alg1(p, now, budget, maxLvl, true); head > lvl {
			t.Fatalf("draw %d: headOnly answered level %d above the full pipeline's %d", draw, head, lvl)
		}
		gen, svc := member(now, levels, monotone)
		longer := &slicePipeline{gens: append(p.gens[:len(p.gens):len(p.gens)], gen), svc: append(p.svc[:len(p.svc):len(p.svc)], svc), progress: p.progress}
		if more, _ := Alg1(longer, now, budget, maxLvl, false); more < lvl {
			t.Fatalf("draw %d: appending a member lowered the level from %d to %d", draw, lvl, more)
		}
	}
	if len(answers) < 6 {
		t.Fatalf("the draws answered only %v (level: count); the properties check too little", answers)
	}
}

// TestAlg1ZeroAlloc: the shared core allocates nothing per decision —
// the property TestRetailDecideZeroAlloc asserts end-to-end for the
// simulator adapter and TestLiveDecideZeroAlloc for the live adapter.
func TestAlg1ZeroAlloc(t *testing.T) {
	p := &slicePipeline{
		gens: []float64{0, 0, 0},
		svc: [][]float64{
			{0.003, 0.002, 0.001},
			{0.003, 0.002, 0.001},
			{0.003, 0.002, 0.001},
		},
	}
	if n := testing.AllocsPerRun(200, func() {
		Alg1(p, 0.001, 0.008, 3, false)
	}); n != 0 {
		t.Fatalf("Alg1 allocates %v per run, want 0", n)
	}
}
