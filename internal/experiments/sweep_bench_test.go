package experiments

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

// benchCells builds CPU-bound synthetic cells so the benchmark measures
// the runner (scheduling + merge) and the machine's parallel headroom,
// not simulator internals. Each cell burns a deterministic amount of
// floating-point work.
func benchCells(n, work int) []SweepCell[float64] {
	cells := make([]SweepCell[float64], n)
	for i := range cells {
		i := i
		cells[i] = SweepCell[float64]{
			Label: fmt.Sprintf("bench-cell-%d", i),
			Run: func() (float64, error) {
				x := float64(i) + 1
				for k := 0; k < work; k++ {
					x = math.Sqrt(x*x + 1)
				}
				return x, nil
			},
		}
	}
	return cells
}

// BenchmarkSweepParallel compares the sequential fast path against the
// worker pool at GOMAXPROCS. On a multi-core host the parallel variant's
// ns/op drops roughly linearly with core count; on a single-CPU host the
// two are expected to tie (the determinism contract, not the speedup, is
// the invariant — see sweep.go).
func BenchmarkSweepParallel(b *testing.B) {
	const cells, work = 32, 20000
	variants := []struct {
		name     string
		parallel int
	}{
		{"parallel=1", 1},
		// "max" rather than the numeric GOMAXPROCS so the benchmark name
		// is stable across machines.
		{"parallel=max", runtime.GOMAXPROCS(0)},
	}
	for _, v := range variants {
		parallel := v.parallel
		b.Run(v.name, func(b *testing.B) {
			cs := benchCells(cells, work)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(parallel, cs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepOverhead isolates the runner's own cost with no-op cells:
// the per-cell scheduling + merge overhead that the sequential fast path
// avoids entirely.
func BenchmarkSweepOverhead(b *testing.B) {
	cells := make([]SweepCell[int], 64)
	for i := range cells {
		i := i
		cells[i] = SweepCell[int]{
			Label: fmt.Sprintf("noop-%d", i),
			Run:   func() (int, error) { return i, nil },
		}
	}
	for _, parallel := range []int{1, 8} {
		b.Run(fmt.Sprintf("parallel=%d", parallel), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunSweep(parallel, cells); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
