package tune

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// hugeGrids are search specs whose grid is far past MaxCandidates. The
// first two have one axis past the cap: expanding it would panic in make
// (2⁶³−1 steps) or exhaust memory (4·10⁹ steps). The third has two axes
// under the cap whose product is 16M candidates.
var hugeGrids = []string{
	`{"version":1,"mode":"grid","axes":[{"field":"monitor.alpha","min":0.1,"max":0.9,"steps":9223372036854775807}]}`,
	`{"version":1,"mode":"grid","axes":[{"field":"monitor.alpha","min":0.1,"max":0.9,"steps":4000000000}]}`,
	`{"version":1,"mode":"grid","axes":[{"field":"monitor.alpha","min":0.1,"max":0.9,"steps":4096},` +
		`{"field":"monitor.guard_band","min":0.5,"max":1,"steps":4096}]}`,
}

// TestSearchSpecHugeGridRejectedBeforeAllocating: a grid larger than
// MaxCandidates is an error, whether one axis's steps or the product of
// several is too large, and the error comes before the grid is expanded.
func TestSearchSpecHugeGridRejectedBeforeAllocating(t *testing.T) {
	for i, body := range hugeGrids {
		var s Spec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cands, err := s.Candidates()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("spec %d: %d candidates, want an error", i, len(cands))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
			t.Errorf("spec %d: rejecting it allocated %d bytes", i, grew)
		}
		if i < 2 {
			if _, err := ParseSpec(strings.NewReader(body)); err == nil {
				t.Errorf("spec %d: ParseSpec accepted steps past MaxCandidates", i)
			}
		}
	}
}

// FuzzSearchSpec holds the search-spec parser — the -search file retail
// tune reads — to its contract on arbitrary bytes: it never panics; an
// accepted spec enumerates at least one and at most MaxCandidates
// candidates, or fails, and allocates at most 16 MiB doing so whatever
// the spec's size; and an accepted spec re-encodes to bytes that parse
// back to the same SHA. Seeds: the tune golden's spec, a random-mode
// spec, one past the random-mode cap and the huge grids above.
func FuzzSearchSpec(f *testing.F) {
	golden, err := json.Marshal(goldenSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte(`{"mode":"random","samples":8,"seed":3,"axes":[{"field":"eetl.slow_frac","min":0.1,"max":0.9}]}`))
	f.Add([]byte(`{"mode":"random","samples":4097,"axes":[{"field":"monitor.alpha","min":0.1,"max":0.9}]}`))
	for _, h := range hugeGrids {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cands, err := s.Candidates()
		runtime.ReadMemStats(&after)
		if len(cands) > MaxCandidates {
			t.Fatalf("%d candidates, cap %d", len(cands), MaxCandidates)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(16<<20); grew > bound {
			t.Fatalf("enumerating %d candidates allocated %d bytes, bound %d", len(cands), grew, bound)
		}
		if err == nil && len(cands) == 0 {
			t.Fatal("an accepted spec enumerated no candidates")
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := ParseSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoding rejected: %v\n%s", err, enc)
		}
		if back.SHA() != s.SHA() {
			t.Fatalf("round trip changed the SHA: %s became %s", s.SHA(), back.SHA())
		}
	})
}
