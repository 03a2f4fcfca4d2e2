package live

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"retail/internal/cpu"
	"retail/internal/fault"
	"retail/internal/policy"
)

// sysfsRootN builds a fake cpufreq tree for n cores.
func sysfsRootN(t *testing.T, n int) string {
	t.Helper()
	root := t.TempDir()
	for c := 0; c < n; c++ {
		dir := filepath.Join(root, "cpu"+strconv.Itoa(c), "cpufreq")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "scaling_setspeed"), []byte("0"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestMockBackendBatch: the batch coalesces to one write per core with
// the last requested level winning, and a core already at its requested
// level does not count as a write.
func TestMockBackendBatch(t *testing.T) {
	grid := cpu.DefaultGrid()
	b := NewMockBackend(grid)
	err := b.SetLevels([]LevelWrite{
		{Core: 0, Level: 3},
		{Core: 1, Level: 5},
		{Core: 0, Level: 7}, // rewrites core 0: last write wins, one backend write
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.Level(0) != 7 || b.Level(1) != 5 {
		t.Fatalf("levels = %d,%d, want 7,5", b.Level(0), b.Level(1))
	}
	if b.Writes() != 2 {
		t.Fatalf("writes = %d, want 2 (core 0 coalesced)", b.Writes())
	}
	// Re-requesting the standing levels is a full no-op.
	if err := b.SetLevels([]LevelWrite{{Core: 0, Level: 7}, {Core: 1, Level: 5}}); err != nil {
		t.Fatal(err)
	}
	if b.Writes() != 2 {
		t.Fatalf("writes = %d after no-op batch, want 2", b.Writes())
	}
}

// TestSysfsBackendBatch: a batched pass writes each changed core's file
// once, skips cores the reconciled state already matches (proven by a
// sentinel the skipped write would have clobbered), and a broken core
// fails without blocking its neighbors.
func TestSysfsBackendBatch(t *testing.T) {
	grid := cpu.DefaultGrid()
	root := sysfsRootN(t, 3)
	b, err := NewSysfsBackend(grid, root, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevels([]LevelWrite{{Core: 0, Level: 2}, {Core: 1, Level: 4}, {Core: 2, Level: 6}}); err != nil {
		t.Fatal(err)
	}
	for core, want := range map[int]cpu.Level{0: 2, 1: 4, 2: 6} {
		if lvl, ok := b.Applied(core); !ok || lvl != want {
			t.Fatalf("Applied(%d) = %d,%v, want %d", core, lvl, ok, want)
		}
		data, err := os.ReadFile(b.setspeedPath(core))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.TrimSpace(string(data)); got != strconv.Itoa(int(grid.Freq(want)*1e6)) {
			t.Fatalf("cpu%d file holds %q", core, got)
		}
	}

	// Plant a sentinel: if the next batch rewrote core 0 the file would
	// change, so an intact sentinel proves the write was skipped.
	if err := os.WriteFile(b.setspeedPath(0), []byte("sentinel"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := b.SetLevels([]LevelWrite{{Core: 0, Level: 2}, {Core: 1, Level: 9}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(b.setspeedPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "sentinel" {
		t.Fatalf("core 0 was rewritten to %q despite holding its level", string(data))
	}
	if lvl, _ := b.Applied(1); lvl != 9 {
		t.Fatalf("Applied(1) = %d, want 9", lvl)
	}

	// Break core 1's file: its write fails and reconciles, core 2's still
	// lands, and the error names the batch failure count.
	setspeed := b.setspeedPath(1)
	if err := os.Remove(setspeed); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(setspeed, 0o755); err != nil {
		t.Fatal(err)
	}
	err = b.SetLevels([]LevelWrite{{Core: 1, Level: 3}, {Core: 2, Level: 1}})
	if err == nil {
		t.Fatal("batch over a broken core should fail")
	}
	if !strings.Contains(err.Error(), "1 of 2") {
		t.Fatalf("err = %v, want 1-of-2 failure summary", err)
	}
	if _, known := b.Applied(1); known {
		t.Fatal("broken core should reconcile to unknown")
	}
	if lvl, ok := b.Applied(2); !ok || lvl != 1 {
		t.Fatalf("Applied(2) = %d,%v, want 1 (batch must continue past failures)", lvl, ok)
	}

	if err := b.SetLevels([]LevelWrite{{Core: 99, Level: 1}}); err == nil {
		t.Fatal("out-of-range core should fail")
	}
}

// TestFaultyBackendBatch: each write in the batch consults the injector
// independently; an injected failure on one core does not shadow the
// rest.
func TestFaultyBackendBatch(t *testing.T) {
	grid := cpu.DefaultGrid()
	mock := NewMockBackend(grid)
	inj := fault.New(1, &fault.Plan{Sites: []fault.SitePlan{{
		Site: fault.SiteDVFSWrite, Kinds: []fault.Kind{fault.KindEIO}, Every: 2,
	}}})
	fb := NewFaultyBackend(mock, inj)
	err := fb.SetLevels([]LevelWrite{{Core: 0, Level: 3}, {Core: 1, Level: 4}})
	if err == nil {
		t.Fatal("Every=2 must fail one of two writes")
	}
	applied := 0
	for core := 0; core < 2; core++ {
		if mock.Level(core) != grid.MaxLevel() { // mock default is max
			applied++
		}
	}
	if applied != 1 {
		t.Fatalf("%d cores applied, want exactly 1 (one injected failure)", applied)
	}
}

// TestApplyLevelsFallback: a backend without SetLevels still serves a
// batch via per-core writes, all attempted, first error reported.
func TestApplyLevelsFallback(t *testing.T) {
	grid := cpu.DefaultGrid()
	sb := &scriptedBackend{inner: NewMockBackend(grid), failNext: 1, err: errors.New("once")}
	err := ApplyLevels(sb, []LevelWrite{{Core: 0, Level: 2}, {Core: 1, Level: 3}})
	if err == nil || err.Error() != "once" {
		t.Fatalf("err = %v, want the scripted failure", err)
	}
	if sb.calls != 2 {
		t.Fatalf("calls = %d, want 2 (fallback attempts every write)", sb.calls)
	}
	if sb.inner.Level(1) != 3 {
		t.Fatalf("core 1 at %d, want 3", sb.inner.Level(1))
	}
}

// TestApplyLevelCoalesce: a re-decision of the level the hardware
// already holds skips the backend pass entirely and only bumps the
// coalesced counter; a failed write clears the known state and re-enables
// real writes.
func TestApplyLevelCoalesce(t *testing.T) {
	grid := cpu.DefaultGrid()
	sb := &scriptedBackend{inner: NewMockBackend(grid)}
	srv := degradeServer(t, sb, policy.DegradeParams{}, nil, nil)

	if got := srv.applyLevel(0, 3); got != 3 {
		t.Fatalf("applied %d, want 3", got)
	}
	if got := srv.applyLevel(0, 3); got != 3 {
		t.Fatalf("coalesced apply returned %d, want 3", got)
	}
	if sb.calls != 1 {
		t.Fatalf("backend calls = %d, want 1 (second write coalesced)", sb.calls)
	}
	if c := srv.DegradeCounts().DVFSCoalesced; c != 1 {
		t.Fatalf("DVFSCoalesced = %d, want 1", c)
	}
	// A different level writes again…
	if got := srv.applyLevel(0, 5); got != 5 || sb.calls != 2 {
		t.Fatalf("applied %d with %d calls, want 5 with 2", got, sb.calls)
	}
	// …and a level change through a transient failure really reaches the
	// backend (failed attempt + successful retry — never coalesced).
	sb.failNext, sb.err = 1, errors.New("transient")
	if got := srv.applyLevel(0, 6); got != 6 {
		t.Fatalf("retried apply returned %d, want 6", got)
	}
	if sb.calls != 4 {
		t.Fatalf("backend calls = %d, want 4 after a transient failure", sb.calls)
	}
}

// TestApplyLevelWriteThrough: a fault injector (the chaos posture)
// disables the coalescer — re-deciding the standing level still drives
// the backend, so fault plans always see write traffic.
func TestApplyLevelWriteThrough(t *testing.T) {
	grid := cpu.DefaultGrid()
	sb := &scriptedBackend{inner: NewMockBackend(grid)}
	srv := degradeServer(t, sb, policy.DegradeParams{}, fault.New(1, &fault.Plan{}), nil)

	if got := srv.applyLevel(0, 3); got != 3 {
		t.Fatalf("applied %d, want 3", got)
	}
	if got := srv.applyLevel(0, 3); got != 3 {
		t.Fatalf("applied %d, want 3", got)
	}
	if sb.calls != 2 {
		t.Fatalf("backend calls = %d, want 2 (write-through must not coalesce)", sb.calls)
	}
	if c := srv.DegradeCounts().DVFSCoalesced; c != 0 {
		t.Fatalf("DVFSCoalesced = %d, want 0 under write-through", c)
	}
}
