package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"retail/internal/sim"
)

// TestSourceValidation is the one table over the source rules, as a run
// (Source.Open) and as the CLIs' -spec/-record/-replay/-app flags
// (LoadSource) meet them. want "" means the combination is accepted.
func TestSourceValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	encode := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if err := tr.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	moses, xapian := ByName("moses"), ByName("xapian")
	recorded := RecordTrace(BuiltinSpec("slo-mix"), 1, 0.5)
	empty := NewTrace(BuiltinSpec("slo-mix"), 1)
	tracePath := write("run.trace", encode(recorded))
	emptyPath := write("empty.trace", encode(empty))
	multi := BuiltinSpec("slo-mix")
	multi.Cohorts[0].App = "xapian"
	multiJSON, err := multi.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	multiPath := write("multi.json", multiJSON)

	open := func(s Source) error { _, err := s.Open(1); return err }
	load := func(app string, explicit bool, spec, record, replay string) error {
		_, err := LoadSource(app, explicit, spec, record, replay)
		return err
	}
	cases := []struct {
		name string
		err  error
		want string
	}{
		{"run: spec plus replay", open(Source{App: moses, Spec: BuiltinSpec("slo-mix"), Replay: recorded}), "mutually exclusive"},
		{"flags: spec plus replay", load("xapian", false, "slo-mix", "", tracePath), "mutually exclusive"},
		{"run: record without spec", open(Source{App: xapian, RPS: 100, Record: NewTrace(nil, 1)}), "record requires a spec"},
		{"flags: record without spec", load("xapian", false, "", "out.trace", ""), "record requires a spec"},
		{"flags: record with replay", load("xapian", false, "", "out.trace", tracePath), "record requires a spec"},
		{"run: multi-app spec", open(Source{App: moses, Spec: multi}), "spans 2 apps"},
		{"flags: multi-app spec", load("xapian", false, multiPath, "", ""), "spans 2 apps"},
		{"run: spec app mismatch", open(Source{App: xapian, Spec: BuiltinSpec("slo-mix")}), "serves app"},
		{"run: replay app mismatch", open(Source{App: xapian, Replay: recorded}), "serves app"},
		{"flags: -app mismatch", load("xapian", true, "slo-mix", "", ""), "serves app"},
		{"run: empty replay", open(Source{App: moses, Replay: empty}), "no records"},
		{"flags: empty replay", load("xapian", false, "", "", emptyPath), "no records"},
		{"run: RPS with replay", open(Source{App: moses, RPS: 100, Replay: recorded}), "recorded rate"},
		{"run: Poisson without RPS", open(Source{App: xapian}), "positive RPS"},
		{"flags: unknown app", load("nope", false, "", "", ""), "unknown app"},
		{"flags: unknown spec", load("xapian", false, "no-such-spec", "", ""), "neither builtin"},

		{"run: Poisson", open(Source{App: xapian, RPS: 100}), ""},
		{"run: spec rescaled", open(Source{App: moses, RPS: 100, Spec: BuiltinSpec("slo-mix"), Record: NewTrace(nil, 1)}), ""},
		{"run: replay re-recorded", open(Source{App: moses, Replay: recorded, Record: NewTrace(nil, 1)}), ""},
		{"flags: spec overrides the -app default", load("xapian", false, "slo-mix", "out.trace", ""), ""},
		{"flags: explicit -app agrees", load("moses", true, "", "", tracePath), ""},
	}
	for _, c := range cases {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: rejected: %v", c.name, c.err)
		case c.want != "" && (c.err == nil || !strings.Contains(c.err.Error(), c.want)):
			t.Errorf("%s: err = %v, want mention of %q", c.name, c.err, c.want)
		}
	}

	src, err := LoadSource("xapian", false, "", "", tracePath)
	if err != nil || src.App.Name() != "moses" || src.Replay == nil || src.Spec != nil {
		t.Fatalf("LoadSource(-replay) = app %v replay %v spec %v, %v", src.App, src.Replay != nil, src.Spec != nil, err)
	}
}

// TestSourceStartsItsKind: Open reports each kind's offered rate, Start
// runs the matching generator, and a replay re-recorded through its tap
// reproduces the recording byte for byte over the trace's Window.
func TestSourceStartsItsKind(t *testing.T) {
	run := func(s Source, horizon sim.Duration) (rate float64, n int) {
		t.Helper()
		rate, err := s.Open(horizon)
		if err != nil {
			t.Fatal(err)
		}
		e := sim.NewEngine()
		pool := &RequestPool{}
		stop := s.Start(e, pool, func(_ *sim.Engine, r *Request) { n++; pool.Put(r) })
		e.Run(sim.Time(horizon))
		stop()
		return rate, n
	}

	if rate, n := run(Source{App: ByName("xapian"), RPS: 200, Seed: 3}, 2); rate != 200 || n == 0 {
		t.Errorf("Poisson: rate %g, %d arrivals", rate, n)
	}

	spec := BuiltinSpec("slo-mix")
	rec := NewTrace(spec.ScaledTo(300), 3)
	rate, n := run(Source{App: ByName("moses"), RPS: 300, Seed: 3, Spec: spec, Record: rec}, 2)
	if rate != spec.ScaledTo(300).TotalRPS() || n == 0 || n != len(rec.Records) {
		t.Fatalf("spec: rate %g, %d arrivals, %d recorded", rate, n, len(rec.Records))
	}

	warmup, dur := rec.Window()
	span := sim.Duration(rec.Records[len(rec.Records)-1].Arrival)
	if warmup != span/6 || dur != span-span/6 {
		t.Errorf("Window() = %v, %v for span %v, want a 1:5 split", warmup, dur, span)
	}
	again := NewTrace(spec.ScaledTo(300), 3)
	rate, n = run(Source{App: ByName("moses"), Replay: rec, Record: again}, warmup+dur)
	if want := float64(len(rec.Records)) / float64(warmup+dur); rate != want || n != len(rec.Records) {
		t.Errorf("replay: rate %g (want %g), %d of %d records", rate, want, n, len(rec.Records))
	}
	a, _ := rec.CanonicalBytes()
	b, _ := again.CanonicalBytes()
	if !bytes.Equal(a, b) {
		t.Error("re-recorded replay differs from the recording")
	}
}
