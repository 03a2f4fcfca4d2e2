package workload

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"retail/internal/sim"
	"retail/internal/stats"
)

func TestReplayAppValidation(t *testing.T) {
	specs := []FeatureSpec{{Name: "x", Kind: Numerical}}
	qos := QoS{Latency: 1, Percentile: 99}
	if _, err := NewReplayApp("r", qos, specs, nil, 0.8); err == nil {
		t.Fatal("empty trace accepted")
	}
	bad := []ReplaySample{{Features: []float64{1, 2}, Service: 1}}
	if _, err := NewReplayApp("r", qos, specs, bad, 0.8); err == nil {
		t.Fatal("feature-width mismatch accepted")
	}
	neg := []ReplaySample{{Features: []float64{1}, Service: -1}}
	if _, err := NewReplayApp("r", qos, specs, neg, 0.8); err == nil {
		t.Fatal("negative service accepted")
	}
	for _, s := range []ReplaySample{
		{Features: []float64{1}, Service: sim.Duration(math.NaN())},
		{Features: []float64{1}, Service: sim.Duration(math.Inf(1))},
		{Features: []float64{math.NaN()}, Service: 1e-3},
		{Features: []float64{math.Inf(-1)}, Service: 1e-3},
	} {
		if _, err := NewReplayApp("r", qos, specs, []ReplaySample{s}, 0.8); err == nil {
			t.Fatalf("non-finite sample %+v accepted", s)
		}
	}
	ok := []ReplaySample{{Features: []float64{1}, Service: 1e-3}}
	if _, err := NewReplayApp("r", qos, specs, ok, 2); err == nil {
		t.Fatal("compute fraction 2 accepted")
	}
	app, err := NewReplayApp("r", qos, specs, ok, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "r" || app.Len() != 1 || len(app.FeatureSpecs()) != 1 {
		t.Fatal("accessors broken")
	}
}

func TestReplayPreservesDistribution(t *testing.T) {
	src := NewMoses()
	samples := CaptureReplay(src, 4000, 1)
	app, err := NewReplayApp("moses-replay", src.QoS(), src.FeatureSpecs(), samples, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	var orig, rep []float64
	for _, s := range samples {
		orig = append(orig, float64(s.Service))
	}
	for i := 0; i < 4000; i++ {
		rep = append(rep, float64(app.Generate(rng).ServiceBase))
	}
	for _, p := range []float64{50, 90, 99} {
		a, b := stats.Percentile(orig, p), stats.Percentile(rep, p)
		if b < a*0.9 || b > a*1.1 {
			t.Fatalf("p%v: trace %v vs replay %v", p, a, b)
		}
	}
	// Feature→latency correlation survives the round trip.
	idx := FeatureIndex(src, "word_count")
	var xs, ys []float64
	for i := 0; i < 2000; i++ {
		r := app.Generate(rng)
		xs = append(xs, r.Features[idx])
		ys = append(ys, float64(r.ServiceBase))
	}
	if rho, _ := stats.Pearson(xs, ys); rho < 0.95 {
		t.Fatalf("replay correlation ρ = %v", rho)
	}
}

func TestReplayGenerateCopiesFeatures(t *testing.T) {
	specs := []FeatureSpec{{Name: "x", Kind: Numerical}}
	samples := []ReplaySample{{Features: []float64{5}, Service: 1e-3}}
	app, _ := NewReplayApp("r", QoS{Latency: 1, Percentile: 99}, specs, samples, 1)
	rng := rand.New(rand.NewSource(1))
	r := app.Generate(rng)
	r.Features[0] = 99
	if samples[0].Features[0] != 5 {
		t.Fatal("Generate aliased trace storage")
	}
}

func TestReplayCSVRoundTrip(t *testing.T) {
	src := NewXapian()
	samples := CaptureReplay(src, 50, 3)
	var buf bytes.Buffer
	if err := DumpReplayCSV(&buf, src.FeatureSpecs(), samples); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReplayCSV(&buf, src.FeatureSpecs())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 50 {
		t.Fatalf("round trip lost samples: %d", len(got))
	}
	for i := range got {
		if got[i].Service != samples[i].Service {
			t.Fatalf("sample %d service %v vs %v", i, got[i].Service, samples[i].Service)
		}
		for j := range got[i].Features {
			if got[i].Features[j] != samples[i].Features[j] {
				t.Fatalf("sample %d feature %d differs", i, j)
			}
		}
	}
}

func TestLoadReplayCSVErrors(t *testing.T) {
	specs := []FeatureSpec{{Name: "x", Kind: Numerical}}
	cases := []string{
		"",                         // no header
		"service_s,y\n1e-3,2\n",    // wrong feature name
		"service_s\n1e-3\n",        // missing feature column
		"service_s,x\nnotanum,2\n", // bad service
		"service_s,x\n1e-3,nope\n", // bad feature
	}
	for i, c := range cases {
		if _, err := LoadReplayCSV(strings.NewReader(c), specs); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
	good := "service_s,x\n0.001,42\n"
	got, err := LoadReplayCSV(strings.NewReader(good), specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Service != sim.Duration(0.001) || got[0].Features[0] != 42 {
		t.Fatalf("parsed %+v", got)
	}
}

// FuzzLoadReplayCSV holds the replay path — LoadReplayCSV, then
// NewReplayApp — to its contract on arbitrary bytes: it never panics;
// every input it accepts holds only finite, positive service times and
// finite features; and an accepted trace written back with DumpReplayCSV
// loads to the same samples bit for bit. Seeds: a valid trace, a
// header-only file, NaN and +Inf service times, a NaN feature, a -0
// feature, and a row with the wrong column count.
func FuzzLoadReplayCSV(f *testing.F) {
	specs := []FeatureSpec{{Name: "x", Kind: Numerical}, {Name: "y", Kind: Numerical}}
	for _, seed := range []string{
		"service_s,x,y\n1e-3,2,3\n2.5e-4,0,1\n",
		"service_s,x,y\n",
		"service_s,x,y\nNaN,2,3\n",
		"service_s,x,y\n+Inf,2,3\n",
		"service_s,x,y\n1e-3,NaN,3\n",
		"service_s,x,y\n1e-3,-0,3\n",
		"service_s,x,y\n1e-3,2\n",
	} {
		f.Add([]byte(seed))
	}
	qos := QoS{Latency: 1, Percentile: 99}
	f.Fuzz(func(t *testing.T, data []byte) {
		samples, err := LoadReplayCSV(bytes.NewReader(data), specs)
		if err != nil {
			return
		}
		if _, err := NewReplayApp("fuzz", qos, specs, samples, 0.8); err != nil {
			return
		}
		for i, s := range samples {
			if svc := float64(s.Service); !(svc > 0) || math.IsInf(svc, 0) {
				t.Fatalf("sample %d: accepted service %v", i, svc)
			}
			for j, v := range s.Features {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("sample %d: accepted feature %d = %v", i, j, v)
				}
			}
		}
		var buf bytes.Buffer
		if err := DumpReplayCSV(&buf, specs, samples); err != nil {
			t.Fatal(err)
		}
		back, err := LoadReplayCSV(&buf, specs)
		if err != nil {
			t.Fatalf("dumped trace rejected: %v\n%s", err, buf.Bytes())
		}
		if len(back) != len(samples) {
			t.Fatalf("round trip kept %d of %d samples", len(back), len(samples))
		}
		for i := range back {
			if math.Float64bits(float64(back[i].Service)) != math.Float64bits(float64(samples[i].Service)) {
				t.Fatalf("sample %d: service %v became %v", i, samples[i].Service, back[i].Service)
			}
			for j := range back[i].Features {
				if math.Float64bits(back[i].Features[j]) != math.Float64bits(samples[i].Features[j]) {
					t.Fatalf("sample %d: feature %d %v became %v", i, j, samples[i].Features[j], back[i].Features[j])
				}
			}
		}
	})
}
