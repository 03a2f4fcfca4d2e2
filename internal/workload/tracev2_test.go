package workload

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"unsafe"
)

// hostileHeader is a well-formed header whose record count no input
// backs.
func hostileHeader(records string) []byte {
	return []byte(`{"format":"retail-trace","version":2,"seed":1,"apps":["xapian"],"classes":[],"records":` + records + "}\n")
}

// TestReadTraceHostileCount: a header's record count must not size an
// allocation on its own — negative is an error, huge is a truncation.
func TestReadTraceHostileCount(t *testing.T) {
	for n, want := range map[string]string{"-1": "negative", "4000000000000": "truncated"} {
		if _, err := ReadTrace(bytes.NewReader(hostileHeader(n))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("records=%s: err = %v, want %q", n, err, want)
		}
	}
}

// FuzzReadTrace holds the trace reader to its contract on arbitrary
// bytes: it never panics; no header field drives an allocation past a
// fixed bound plus what the input's own length pays for; and whatever it
// accepts re-encodes to a trace it reads back with the same canonical
// bytes. Seeds: every builtin spec's recording plus the two hostile
// record counts.
func FuzzReadTrace(f *testing.F) {
	for _, name := range BuiltinSpecNames() {
		var buf bytes.Buffer
		if err := RecordTrace(BuiltinSpec(name), 1, 0.02).Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(hostileHeader("-1"))
	f.Add(hostileHeader("4000000000000"))

	presize := uint64(maxPresize) * uint64(unsafe.Sizeof(TraceRecord{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := ReadTrace(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, presize+64<<10+64*uint64(len(data)); grew > bound {
			t.Fatalf("%d input bytes allocated %d, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := tr.Encode(&enc); err != nil {
			t.Fatalf("accepted trace does not re-encode: %v", err)
		}
		back, err := ReadTrace(&enc)
		if err != nil {
			t.Fatalf("re-encoded trace rejected: %v", err)
		}
		want, err := tr.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		got, err := back.CanonicalBytes()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round trip changed the canonical bytes: %d became %d", len(want), len(got))
		}
	})
}
