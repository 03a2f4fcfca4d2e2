package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the parallel sweep runner. Every experiment in this
// package is a sweep over independent cells — (app × load × manager ×
// seed) combinations that each build their own engine, server and manager
// and share only immutable calibration state. The runner fans those cells
// across a bounded worker pool and merges the results back in canonical
// cell order, so the rendered tables and CSV exports are byte-identical to
// a sequential run: parallelism changes wall-clock time, never results.
//
// Determinism contract:
//
//   - Each cell's virtual-time simulation is self-contained: its engine,
//     RNGs and manager state are constructed inside the cell from the
//     cell's own seed. Nothing observes scheduling order across cells.
//   - Results land in a slice indexed by the cell's canonical position,
//     not by completion order.
//   - On error, the first error in canonical cell order is returned (not
//     the first to occur in wall-clock time), so failure messages are as
//     reproducible as results.

// SweepCell is one independent unit of a sweep: a label for diagnostics
// and a closure that runs the cell and returns its result.
type SweepCell[T any] struct {
	// Label identifies the cell in error messages ("xapian/load=0.9/retail").
	Label string
	// Run executes the cell. It must not share mutable state with other
	// cells; shared inputs (calibrations, trained models, training sets)
	// must be treated as read-only.
	Run func() (T, error)
}

// Parallelism resolves a -parallel flag value: n <= 0 selects
// runtime.GOMAXPROCS(0), anything else is used as-is.
func Parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// RunSweep executes the cells on up to parallel workers (Parallelism
// semantics: <= 0 means GOMAXPROCS) and returns their results in canonical
// cell order. parallel == 1 runs the cells inline on the calling
// goroutine, exactly like the pre-runner sequential loops, except that a
// failing cell does not stop later cells from being skipped — the first
// error in cell order is returned either way.
func RunSweep[T any](parallel int, cells []SweepCell[T]) ([]T, error) {
	results := make([]T, len(cells))
	errs := make([]error, len(cells))

	workers := Parallelism(parallel)
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers <= 1 {
		// Sequential fast path: no goroutines, first error returns
		// immediately (matching the historical loop structure).
		for i, c := range cells {
			v, err := c.Run()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.Label, err)
			}
			results[i] = v
		}
		return results, nil
	}

	// Work distribution is an atomic claim counter rather than a channel:
	// a channel handoff costs two scheduler interactions per cell, which
	// dominates when cells are short (see BenchmarkSweepOverhead), while a
	// fetch-and-add claim is a single uncontended RMW. Order of execution
	// is still arbitrary; order of results is still canonical.
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i], errs[i] = cells[i].Run()
			}
		}()
	}
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cells[i].Label, err)
		}
	}
	return results, nil
}
