package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"retail/internal/sim"
	"retail/internal/stats"
)

func sampleN(t *testing.T, a App, n int, seed int64) []*Request {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Request, n)
	for i := range out {
		out[i] = a.Generate(rng)
	}
	return out
}

func serviceSeconds(rs []*Request) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.ServiceBase)
	}
	return out
}

func featureColumn(rs []*Request, idx int) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Features[idx]
	}
	return out
}

func TestAllAppsBasicContracts(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name(), func(t *testing.T) {
			specs := a.FeatureSpecs()
			if len(specs) == 0 {
				t.Fatal("no feature specs")
			}
			q := a.QoS()
			if q.Latency <= 0 || q.Percentile <= 0 || q.Percentile >= 100 {
				t.Fatalf("bad QoS %+v", q)
			}
			for _, r := range sampleN(t, a, 200, 1) {
				if len(r.Features) != len(specs) {
					t.Fatalf("request has %d features, specs %d", len(r.Features), len(specs))
				}
				if r.ServiceBase <= 0 {
					t.Fatalf("non-positive service %v", r.ServiceBase)
				}
				if r.ComputeFrac < 0 || r.ComputeFrac > 1 {
					t.Fatalf("compute frac %v", r.ComputeFrac)
				}
				if r.App != a.Name() {
					t.Fatalf("request app %q", r.App)
				}
				for j, s := range specs {
					if s.Kind == Categorical {
						c := int(r.Features[j])
						if float64(c) != r.Features[j] || c < 0 || c >= s.Categories {
							t.Fatalf("feature %s: invalid category %v", s.Name, r.Features[j])
						}
					}
				}
			}
		})
	}
}

func TestByName(t *testing.T) {
	if ByName("xapian") == nil || ByName("xapian").Name() != "xapian" {
		t.Fatal("ByName(xapian) failed")
	}
	if ByName("nope") != nil {
		t.Fatal("unknown app should be nil")
	}
}

func TestFeatureIndex(t *testing.T) {
	a := NewMoses()
	if i := FeatureIndex(a, "word_count"); i != 1 {
		t.Fatalf("word_count index = %d", i)
	}
	if i := FeatureIndex(a, "missing"); i != -1 {
		t.Fatalf("missing index = %d", i)
	}
}

// The paper's central characterization claims, §III: which features
// correlate and which do not.

func TestMosesWordCountCorrelatesCharsDoNot(t *testing.T) {
	rs := sampleN(t, NewMoses(), 3000, 2)
	svc := serviceSeconds(rs)
	words := featureColumn(rs, FeatureIndex(NewMoses(), "word_count"))
	chars := featureColumn(rs, FeatureIndex(NewMoses(), "phrase_chars"))
	rw, _ := stats.Pearson(words, svc)
	rc, _ := stats.Pearson(chars, svc)
	if rw < 0.95 {
		t.Fatalf("word_count ρ = %v, want > 0.95", rw)
	}
	if math.Abs(rc) > 0.6 {
		t.Fatalf("phrase_chars ρ = %v, want weak (decoy)", rc)
	}
	if math.Abs(rc) >= rw {
		t.Fatal("decoy correlates at least as strongly as the real feature")
	}
}

func TestSphinxFileSizeCorrelatesPathDoesNot(t *testing.T) {
	rs := sampleN(t, NewSphinx(), 3000, 3)
	svc := serviceSeconds(rs)
	size := featureColumn(rs, FeatureIndex(NewSphinx(), "audio_mb"))
	path := featureColumn(rs, FeatureIndex(NewSphinx(), "path_len"))
	rsize, _ := stats.Pearson(size, svc)
	rpath, _ := stats.Pearson(path, svc)
	if rsize < 0.95 {
		t.Fatalf("audio_mb ρ = %v", rsize)
	}
	if math.Abs(rpath) > 0.1 {
		t.Fatalf("path_len ρ = %v, want ≈0", rpath)
	}
}

func TestXapianDocCountCorrelates(t *testing.T) {
	rs := sampleN(t, NewXapian(), 3000, 4)
	svc := serviceSeconds(rs)
	docs := featureColumn(rs, FeatureIndex(NewXapian(), "doc_count"))
	query := featureColumn(rs, FeatureIndex(NewXapian(), "query_chars"))
	rd, _ := stats.Pearson(docs, svc)
	rq, _ := stats.Pearson(query, svc)
	if rd < 0.97 {
		t.Fatalf("doc_count ρ = %v", rd)
	}
	if math.Abs(rq) > 0.1 {
		t.Fatalf("query_chars ρ = %v", rq)
	}
}

func TestXapianLateFeatureIsLate(t *testing.T) {
	for _, s := range NewXapian().FeatureSpecs() {
		if s.Name == "sorted_bytes" && s.Lateness <= 0.5 {
			t.Fatalf("sorted_bytes lateness = %v, must exceed the 0.5 filter", s.Lateness)
		}
		if s.Name == "doc_count" && (s.Lateness <= 0 || s.Lateness > 0.5) {
			t.Fatalf("doc_count lateness = %v, must be early application feature", s.Lateness)
		}
	}
}

func TestOLTPTypeExplainsVariance(t *testing.T) {
	for _, mk := range []func() App{NewShore, NewSilo} {
		a := mk()
		rs := sampleN(t, a, 5000, 5)
		svc := serviceSeconds(rs)
		types := make([]int, len(rs))
		for i, r := range rs {
			types[i] = int(r.Features[FeatureIndex(a, "tx_type")])
		}
		eta, err := stats.CorrelationRatio(types, svc)
		if err != nil {
			t.Fatal(err)
		}
		if eta < 0.3 {
			t.Fatalf("%s: tx_type η² = %v, want substantial", a.Name(), eta)
		}
	}
}

func TestOLTPNewOrderItemCount(t *testing.T) {
	a := NewShore()
	rs := sampleN(t, a, 20000, 6)
	var items, svc []float64
	for _, r := range rs {
		if int(r.Features[FeatureIndex(a, "tx_type")]) == TxNewOrder && r.Features[FeatureIndex(a, "rollback")] == 0 {
			items = append(items, r.Features[FeatureIndex(a, "item_count")])
			svc = append(svc, float64(r.ServiceBase))
		}
	}
	if len(items) < 1000 {
		t.Fatalf("too few NEW_ORDER samples: %d", len(items))
	}
	rho, _ := stats.Pearson(items, svc)
	if rho < 0.9 {
		t.Fatalf("item_count ρ = %v within NEW_ORDER", rho)
	}
}

func TestOLTPRollbackAddsTime(t *testing.T) {
	a := NewShore()
	rs := sampleN(t, a, 60000, 7)
	var normal, rolled stats.Running
	idxType, idxRb := FeatureIndex(a, "tx_type"), FeatureIndex(a, "rollback")
	for _, r := range rs {
		if int(r.Features[idxType]) != TxNewOrder {
			continue
		}
		if r.Features[idxRb] == 1 {
			rolled.Add(float64(r.ServiceBase))
		} else {
			normal.Add(float64(r.ServiceBase))
		}
	}
	if rolled.N() < 50 {
		t.Fatalf("rollback rate too low: %d samples", rolled.N())
	}
	if rolled.Mean() <= normal.Mean() {
		t.Fatalf("rollback mean %v ≤ normal mean %v", rolled.Mean(), normal.Mean())
	}
}

func TestOLTPStockLevelDistinctItems(t *testing.T) {
	a := NewSilo()
	rs := sampleN(t, a, 60000, 8)
	var distinct, svc []float64
	idxType, idxD := FeatureIndex(a, "tx_type"), FeatureIndex(a, "distinct_items")
	for _, r := range rs {
		if int(r.Features[idxType]) == TxStockLevel {
			distinct = append(distinct, r.Features[idxD])
			svc = append(svc, float64(r.ServiceBase))
		}
	}
	rho, _ := stats.Pearson(distinct, svc)
	if rho < 0.9 {
		t.Fatalf("distinct_items ρ = %v within STOCK_LEVEL", rho)
	}
}

func TestSiloFasterThanShore(t *testing.T) {
	shore := MeanServiceAtMax(NewShore())
	silo := MeanServiceAtMax(NewSilo())
	if silo*5 > shore {
		t.Fatalf("silo mean %v not ≫ faster than shore %v", silo, shore)
	}
	if silo > 500e-6 {
		t.Fatalf("silo mean service %v, want sub-millisecond", silo)
	}
}

func TestLowVariationApps(t *testing.T) {
	// Masstree and ImgDNN: median within 20% of the p90 tail (Table II's
	// "little or no variation" category).
	for _, mk := range []func() App{NewMasstree, NewImgDNN} {
		a := mk()
		svc := serviceSeconds(sampleN(t, a, 4000, 9))
		median := stats.Percentile(svc, 50)
		tail := stats.Percentile(svc, 90)
		if median/tail < 0.8 {
			t.Fatalf("%s: median/p90 = %v, want ≥ 0.8", a.Name(), median/tail)
		}
	}
}

func TestHighVariationApps(t *testing.T) {
	for _, name := range []string{"xapian", "moses", "sphinx"} {
		a := ByName(name)
		svc := serviceSeconds(sampleN(t, a, 4000, 10))
		median := stats.Percentile(svc, 50)
		tail := stats.Percentile(svc, 90)
		if median/tail > 0.75 {
			t.Fatalf("%s: median/p90 = %v, want wide variation", name, median/tail)
		}
	}
}

func TestServiceAtFrequencyScaling(t *testing.T) {
	r := &Request{ServiceBase: sim.Duration(10e-3), ComputeFrac: 0.8}
	atMax := r.ServiceAt(2.1, 2.1, 1)
	if math.Abs(float64(atMax)-10e-3) > 1e-12 {
		t.Fatalf("service at fmax = %v", atMax)
	}
	atMin := r.ServiceAt(1.0, 2.1, 1)
	// compute part (8ms) stretches by 2.1×, memory part (2ms) constant.
	want := 8e-3*2.1 + 2e-3
	if math.Abs(float64(atMin)-want) > 1e-9 {
		t.Fatalf("service at fmin = %v, want %v", atMin, want)
	}
	// Not proportional: actual slowdown must be below fmax/fmin for any
	// request with a memory-bound component.
	if float64(atMin)/float64(atMax) >= 2.1 {
		t.Fatal("service scaled proportionally despite memory fraction")
	}
	// Interference scales everything.
	inflated := r.ServiceAt(2.1, 2.1, 1.5)
	if math.Abs(float64(inflated)-15e-3) > 1e-9 {
		t.Fatalf("interference-scaled service = %v", inflated)
	}
}

func TestServiceAtPanicsOnZeroFreq(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero frequency")
		}
	}()
	(&Request{ServiceBase: 1}).ServiceAt(0, 2.1, 1)
}

func TestRequestDerivedTimes(t *testing.T) {
	r := &Request{Gen: 1, Recv: 2, Start: 5, End: 9}
	if r.QueueDelay() != 3 {
		t.Fatalf("queue delay %v", r.QueueDelay())
	}
	if r.Sojourn() != 8 {
		t.Fatalf("sojourn %v", r.Sojourn())
	}
	if r.ServiceTime() != 4 {
		t.Fatalf("service %v", r.ServiceTime())
	}
}

// A retired request comes back from the pool with an empty, unready
// prediction slot that keeps its backing arrays, so a recycled node
// neither inherits its previous occupant's predictions nor reallocates.
func TestRequestPoolResetsPredSlot(t *testing.T) {
	p := &RequestPool{}
	r := p.Get()
	r.ID, r.Features = 7, append(r.Features, 1, 2)
	r.Pred = PredSlot{Feats: []float64{1, 2}, Vals: []float64{3, 4, 5}, Ready: true, Gen: 9}
	p.Put(r)
	got := p.Get()
	if got != r {
		t.Fatal("the pool did not recycle the node")
	}
	if s := got.Pred; s.Ready || s.Gen != 0 || len(s.Feats) != 0 || len(s.Vals) != 0 {
		t.Fatalf("recycled slot = %+v, want empty and unready", s)
	}
	if cap(got.Pred.Feats) != 2 || cap(got.Pred.Vals) != 3 || cap(got.Features) != 2 {
		t.Fatalf("recycled capacities feats/vals/features = %d/%d/%d, want 2/3/2",
			cap(got.Pred.Feats), cap(got.Pred.Vals), cap(got.Features))
	}
	if got.ID != 0 || len(got.Features) != 0 {
		t.Fatalf("recycled request ID %d features %v, want zeroed", got.ID, got.Features)
	}
}

func TestGeneratorPoissonRate(t *testing.T) {
	e := sim.NewEngine()
	var count int
	var gaps []float64
	last := sim.Time(-1)
	g := NewGenerator(NewMasstree(), 1000, 11, func(_ *sim.Engine, r *Request) {
		count++
		if last >= 0 {
			gaps = append(gaps, float64(r.Gen-last))
		}
		last = r.Gen
	})
	g.Start(e)
	e.Run(10) // 10 s at 1000 RPS
	if count < 9300 || count > 10700 {
		t.Fatalf("arrivals = %d over 10s at 1000 RPS", count)
	}
	mean := stats.Mean(gaps)
	if mean < 0.9e-3 || mean > 1.1e-3 {
		t.Fatalf("mean gap = %v, want ≈1ms", mean)
	}
	// Exponential gaps: std ≈ mean.
	if s := stats.StdDev(gaps); s < 0.8*mean || s > 1.2*mean {
		t.Fatalf("gap std = %v vs mean %v: not exponential-like", s, mean)
	}
}

func TestGeneratorRequestIDsMonotone(t *testing.T) {
	e := sim.NewEngine()
	var ids []uint64
	g := NewGenerator(NewMasstree(), 500, 12, func(_ *sim.Engine, r *Request) {
		ids = append(ids, r.ID)
	})
	g.Start(e)
	e.Run(1)
	for i, id := range ids {
		if id != uint64(i) {
			t.Fatalf("id[%d] = %d", i, id)
		}
	}
}

func TestGeneratorStop(t *testing.T) {
	e := sim.NewEngine()
	count := 0
	g := NewGenerator(NewMasstree(), 1000, 13, func(*sim.Engine, *Request) { count++ })
	g.Start(e)
	e.At(0.1, "stop", func(*sim.Engine) { g.Stop() })
	e.Run(1)
	if count < 50 || count > 200 {
		t.Fatalf("arrivals after stop at 0.1s = %d", count)
	}
}

func TestGeneratorZeroRPS(t *testing.T) {
	e := sim.NewEngine()
	g := NewGenerator(NewMasstree(), 0, 14, func(*sim.Engine, *Request) {
		t.Fatal("zero-RPS generator produced a request")
	})
	g.Start(e)
	e.Run(1)
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() []sim.Time {
		e := sim.NewEngine()
		var at []sim.Time
		g := NewGenerator(NewXapian(), 800, 99, func(_ *sim.Engine, r *Request) { at = append(at, r.Gen) })
		g.Start(e)
		e.Run(2)
		return at
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMaxLoadRPS(t *testing.T) {
	a := NewImgDNN()
	w := 20
	rps := MaxLoadRPS(a, w)
	util := rps * MeanServiceAtMax(a) / float64(w)
	if math.Abs(util-0.72) > 1e-9 {
		t.Fatalf("max-load utilization = %v, want 0.72", util)
	}
	if rps <= 0 {
		t.Fatal("non-positive max load")
	}
}

func TestMeanServiceCacheStable(t *testing.T) {
	a := NewMoses()
	if MeanServiceAtMax(a) != MeanServiceAtMax(a) {
		t.Fatal("memoized mean service changed between calls")
	}
}

// Property: ServiceAt is monotone non-increasing in frequency for any
// request and any compute fraction.
func TestServiceMonotoneInFrequency(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		apps := All()
		a := apps[rng.Intn(len(apps))]
		r := a.Generate(rng)
		prev := math.Inf(1)
		for f := 1.0; f <= 2.1001; f += 0.1 {
			s := float64(r.ServiceAt(f, 2.1, 1))
			if s > prev+1e-15 {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: QoS is achievable in principle — the worst-case intrinsic
// service time at *max* frequency stays below the QoS target for every app
// (otherwise no power manager could ever satisfy the constraint).
func TestQoSHeadroomProperty(t *testing.T) {
	for _, a := range All() {
		rng := rand.New(rand.NewSource(77))
		q := a.QoS()
		for i := 0; i < 5000; i++ {
			r := a.Generate(rng)
			if r.ServiceBase >= q.Latency {
				t.Fatalf("%s: service %v ≥ QoS %v — unachievable", a.Name(), r.ServiceBase, q.Latency)
			}
		}
	}
}
