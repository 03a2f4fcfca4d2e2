package workload

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// hostileSpec is a well-formed one-cohort spec whose population alone
// would allocate tens of gigabytes of client RNG state.
const hostileSpec = `{"version":1,"name":"hostile","seed":1,"cohorts":[{"app":"moses","clients":10000000,"rps":100,"arrival":{"kind":"poisson"},"class":"standard"}]}`

// TestSpecClientBound: ParseSpec refuses a population past MaxSpecClients,
// whether one cohort or the sum asks for it, and accepts the bound itself.
func TestSpecClientBound(t *testing.T) {
	if _, err := ParseSpec(strings.NewReader(hostileSpec)); err == nil || !strings.Contains(err.Error(), "at most") {
		t.Errorf("clients 10000000: err = %v, want the population bound", err)
	}
	s := BuiltinSpec("steady-poisson")
	s.Cohorts[0].Clients = MaxSpecClients
	if err := s.Validate(); err != nil {
		t.Errorf("clients = MaxSpecClients rejected: %v", err)
	}
	s.Cohorts = append(s.Cohorts, s.Cohorts[0])
	s.Cohorts[1].Clients = 1
	if err := s.Validate(); err == nil {
		t.Error("a total of MaxSpecClients+1 over two cohorts was accepted")
	}
}

// FuzzParseSpec holds the spec parser to its contract on arbitrary bytes:
// it never panics; an accepted spec's generator allocates within a fixed
// bound plus what the input's own length pays for; and an accepted spec
// re-encodes to one that parses back to the same SHA. Seeds: every
// builtin spec plus the hostile population.
func FuzzParseSpec(f *testing.F) {
	for _, name := range BuiltinSpecNames() {
		b, err := BuiltinSpec(name).MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(hostileSpec))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := ParseSpec(bytes.NewReader(data))
		if err == nil {
			NewCohortGenerator(s, 1, nil)
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+512*len(data)); grew > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		enc, err := s.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := ParseSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v", err)
		}
		if back.SHA() != s.SHA() {
			t.Fatalf("round trip changed the SHA: %s became %s", s.SHA(), back.SHA())
		}
	})
}

// MarshalIndent renders the spec as indented JSON (for -spec-dump style
// inspection).
func (s *Spec) MarshalIndent() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
