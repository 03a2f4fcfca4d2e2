// Package live runs ReTail's runtime against wall-clock time instead of
// the simulator: a TCP request server with per-worker FCFS queues, the
// Algorithm 1 frequency predictor, the QoS′ latency monitor, and a
// pluggable DVFS backend. On a Linux host with the ACPI userspace
// governor, SysfsBackend writes the same scaling_setspeed files the paper
// uses; elsewhere (containers, CI, macOS) MockBackend records the
// decisions and the demo executor scales its synthetic work accordingly
// ("hardware-in-the-loop mock").
//
// This package is the adoption path: it shows how the calibrated
// predictor and the decision logic transfer unchanged from the simulator
// to a real service process.
package live

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"retail/internal/cpu"
	"retail/internal/fault"
)

// Backend applies a frequency decision to a physical (or mocked) core.
type Backend interface {
	// SetLevel requests the frequency level for the given core index.
	SetLevel(core int, lvl cpu.Level) error
	// Grid reports the frequency grid the backend exposes.
	Grid() *cpu.Grid
}

// LevelWrite is one core's requested frequency level within a batch.
type LevelWrite struct {
	Core  int
	Level cpu.Level
}

// BatchBackend is implemented by backends that can apply a set of
// frequency writes in one pass. SetLevels coalesces the batch before
// touching hardware: the last write per core wins, and a core already
// holding its requested level is skipped entirely — a sysfs backend pays
// zero syscalls for it. Every remaining core is attempted even when an
// earlier one fails; the returned error summarizes the failures.
type BatchBackend interface {
	Backend
	SetLevels(writes []LevelWrite) error
}

// ApplyLevels drives a batch of frequency writes through any Backend:
// one SetLevels pass when the backend supports batching, per-core
// SetLevel calls (all attempted, first error kept) otherwise.
func ApplyLevels(b Backend, writes []LevelWrite) error {
	if bb, ok := b.(BatchBackend); ok {
		return bb.SetLevels(writes)
	}
	var firstErr error
	for _, w := range writes {
		if err := b.SetLevel(w.Core, w.Level); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// coalesceWrites reduces a batch to at most one write per core,
// preserving first-appearance order with the last requested level
// winning — the same register-write semantics the simulator's
// cpu.Core.SetLevel re-arm implements in virtual time.
func coalesceWrites(writes []LevelWrite) []LevelWrite {
	out := make([]LevelWrite, 0, len(writes))
	pos := make(map[int]int, len(writes)) // core → index in out
	for _, w := range writes {
		if i, ok := pos[w.Core]; ok {
			out[i].Level = w.Level
			continue
		}
		pos[w.Core] = len(out)
		out = append(out, w)
	}
	return out
}

// MockBackend records decisions; the demo executor consults it to scale
// synthetic work. Safe for concurrent use.
type MockBackend struct {
	grid *cpu.Grid

	mu     sync.Mutex
	levels map[int]cpu.Level
	writes int
}

// NewMockBackend returns a mock over the given grid with every core at
// max frequency.
func NewMockBackend(grid *cpu.Grid) *MockBackend {
	return &MockBackend{grid: grid, levels: map[int]cpu.Level{}}
}

// Grid implements Backend.
func (b *MockBackend) Grid() *cpu.Grid { return b.grid }

// SetLevel implements Backend.
func (b *MockBackend) SetLevel(core int, lvl cpu.Level) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.levels[core] = b.grid.Clamp(lvl)
	b.writes++
	return nil
}

// SetLevels implements BatchBackend: the coalesced batch is applied
// under one lock acquisition, and a core already recorded at its
// requested level does not count as a write — mirroring the syscall the
// sysfs backend would have skipped.
func (b *MockBackend) SetLevels(writes []LevelWrite) error {
	coalesced := coalesceWrites(writes)
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, w := range coalesced {
		lvl := b.grid.Clamp(w.Level)
		if have, ok := b.levels[w.Core]; ok && have == lvl {
			continue
		}
		b.levels[w.Core] = lvl
		b.writes++
	}
	return nil
}

// Level returns the core's current level (max frequency if never set).
func (b *MockBackend) Level(core int) cpu.Level {
	b.mu.Lock()
	defer b.mu.Unlock()
	if lvl, ok := b.levels[core]; ok {
		return lvl
	}
	return b.grid.MaxLevel()
}

// Writes returns how many SetLevel calls were applied.
func (b *MockBackend) Writes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writes
}

// SysfsBackend drives the Linux cpufreq userspace governor: it writes
// kHz values to <root>/cpu<N>/cpufreq/scaling_setspeed, where root is
// normally /sys/devices/system/cpu. The paper uses exactly this interface
// (ACPI driver, "userspace" governor, §VII-A). Construction verifies the
// files are writable so misconfiguration fails fast.
//
// SetLevel is failure-aware: a failed or partial write leaves the
// hardware at an unknown frequency, so the backend reconciles by
// re-reading the cpufreq files (scaling_cur_freq when present, else
// scaling_setspeed) and mapping the observed kHz back onto the grid.
// Applied reports the reconciled per-core level so callers never carry a
// grid state the hardware does not hold.
type SysfsBackend struct {
	grid  *cpu.Grid
	root  string
	cores []int

	mu    sync.Mutex
	known map[int]cpu.Level // core index → last reconciled hardware level
}

// NewSysfsBackend validates that every listed core's scaling_setspeed
// file exists and is writable under root.
func NewSysfsBackend(grid *cpu.Grid, root string, cores []int) (*SysfsBackend, error) {
	if len(cores) == 0 {
		return nil, fmt.Errorf("live: no cores given")
	}
	b := &SysfsBackend{grid: grid, root: root, cores: cores, known: map[int]cpu.Level{}}
	for _, c := range cores {
		p := b.setspeedPath(c)
		f, err := os.OpenFile(p, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("live: cpufreq not writable: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("live: cpufreq close: %w", err)
		}
	}
	return b, nil
}

func (b *SysfsBackend) setspeedPath(core int) string {
	return filepath.Join(b.root, fmt.Sprintf("cpu%d", core), "cpufreq", "scaling_setspeed")
}

func (b *SysfsBackend) curFreqPath(core int) string {
	return filepath.Join(b.root, fmt.Sprintf("cpu%d", core), "cpufreq", "scaling_cur_freq")
}

// Grid implements Backend.
func (b *SysfsBackend) Grid() *cpu.Grid { return b.grid }

// SetLevel implements Backend: writes the frequency in kHz, as cpufreq
// expects. On any failure — including a partial write, which previously
// leaked a grid level out of sync with the hardware — it reconciles the
// recorded level by re-reading the frequency files before returning the
// error, so Applied always reflects the hardware's best-known state.
func (b *SysfsBackend) SetLevel(core int, lvl cpu.Level) error {
	if core < 0 || core >= len(b.cores) {
		return fmt.Errorf("live: core index %d out of range", core)
	}
	lvl = b.grid.Clamp(lvl)
	khz := strconv.Itoa(int(b.grid.Freq(lvl) * 1e6))
	if err := writeFull(b.setspeedPath(b.cores[core]), khz); err != nil {
		b.reconcile(core)
		return fmt.Errorf("live: cpufreq write cpu%d: %w", b.cores[core], err)
	}
	b.mu.Lock()
	b.known[core] = lvl
	b.mu.Unlock()
	return nil
}

// SetLevels implements BatchBackend: one pass over the coalesced batch.
// A core whose last reconciled hardware level already matches the
// request is skipped without touching sysfs — under a settled policy
// most of a decision tick's writes coalesce away entirely. Each
// remaining core gets exactly one write; a failure reconciles that core
// (as SetLevel would) and the pass continues, so one sick core cannot
// block frequency changes on its neighbors. The returned error carries
// the failure count and the first underlying cause.
func (b *SysfsBackend) SetLevels(writes []LevelWrite) error {
	coalesced := coalesceWrites(writes)
	// Filter against the reconciled hardware state under one lock; the
	// file I/O below runs unlocked, like SetLevel's.
	pending := coalesced[:0]
	b.mu.Lock()
	for _, w := range coalesced {
		if w.Core < 0 || w.Core >= len(b.cores) {
			b.mu.Unlock()
			return fmt.Errorf("live: core index %d out of range", w.Core)
		}
		w.Level = b.grid.Clamp(w.Level)
		if have, ok := b.known[w.Core]; ok && have == w.Level {
			continue
		}
		pending = append(pending, w)
	}
	b.mu.Unlock()
	var firstErr error
	failed := 0
	for _, w := range pending {
		khz := strconv.Itoa(int(b.grid.Freq(w.Level) * 1e6))
		if err := writeFull(b.setspeedPath(b.cores[w.Core]), khz); err != nil {
			b.reconcile(w.Core)
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("live: cpufreq write cpu%d: %w", b.cores[w.Core], err)
			}
			continue
		}
		b.mu.Lock()
		b.known[w.Core] = w.Level
		b.mu.Unlock()
	}
	if firstErr != nil {
		return fmt.Errorf("live: batch: %d of %d writes failed: %w", failed, len(pending), firstErr)
	}
	return nil
}

// writeFull writes s in one write call and treats a short write as an
// error even when the kernel reports success, closing the partial-write
// blind spot of os.WriteFile-style helpers.
func writeFull(path, s string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	n, werr := f.WriteString(s)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if n < len(s) {
		return fmt.Errorf("wrote %d of %d bytes: %w", n, len(s), io.ErrShortWrite)
	}
	return cerr
}

// reconcile re-reads the core's frequency from sysfs after a failed
// write and snaps it to the nearest grid level. scaling_cur_freq (what
// the hardware is actually doing) is preferred; scaling_setspeed (the
// last accepted request) is the fallback. If neither parses, the core's
// level is marked unknown.
func (b *SysfsBackend) reconcile(core int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, p := range []string{b.curFreqPath(b.cores[core]), b.setspeedPath(b.cores[core])} {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		khz, err := strconv.Atoi(strings.TrimSpace(string(data)))
		if err != nil || khz <= 0 {
			continue
		}
		b.known[core] = b.grid.Nearest(float64(khz) / 1e6)
		return
	}
	delete(b.known, core) // hardware state unknown
}

// ---------------------------------------------------------------------------
// Fault-injecting backend wrapper.

// FaultyBackend wraps any Backend with the SiteDVFSWrite injection point:
//
//	KindEIO / KindEPERM   — the write fails before reaching the inner
//	                        backend; the hardware level is unchanged.
//	KindPartialWrite      — the inner backend is driven to a *different*
//	                        level than requested, then an ErrInjectedShortWrite
//	                        is returned: the hardware is now out of sync
//	                        with what the caller believes, exactly the
//	                        state SysfsBackend.SetLevel reconciles.
//
// With a nil injector (or no SiteDVFSWrite plan) the wrapper is a
// transparent pass-through.
type FaultyBackend struct {
	inner Backend
	inj   *fault.Injector
}

// NewFaultyBackend wraps inner with the injector's DVFS-write site.
func NewFaultyBackend(inner Backend, inj *fault.Injector) *FaultyBackend {
	return &FaultyBackend{inner: inner, inj: inj}
}

// Grid implements Backend.
func (b *FaultyBackend) Grid() *cpu.Grid { return b.inner.Grid() }

// SetLevels implements BatchBackend: each coalesced write consults the
// injector independently — a batch of N changes is N chances to fault,
// exactly as N single writes would be — and the pass continues past
// failures so injection on one core cannot shadow the rest of the batch.
func (b *FaultyBackend) SetLevels(writes []LevelWrite) error {
	var firstErr error
	for _, w := range coalesceWrites(writes) {
		if err := b.SetLevel(w.Core, w.Level); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// SetLevel implements Backend with injection.
func (b *FaultyBackend) SetLevel(core int, lvl cpu.Level) error {
	f, ok := b.inj.Fire(fault.SiteDVFSWrite)
	if !ok {
		return b.inner.SetLevel(core, lvl)
	}
	switch f.Kind {
	case fault.KindPartialWrite:
		// The truncated value parses as a lower frequency: drive the
		// hardware to the grid minimum, then report the short write.
		if err := b.inner.SetLevel(core, 0); err != nil {
			return err
		}
		return fmt.Errorf("live: cpufreq write cpu%d: %w", core, f.Err())
	default:
		if err := f.Err(); err != nil {
			return err
		}
		return b.inner.SetLevel(core, lvl)
	}
}
