package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkQueue compares the calendar with the two reference queues head
// to head: the sparse schedule→fire cycle, steady-state churn while
// holding N pending events, schedule→cancel, and fleetShape — the only
// case whose population has the simulator's two time scales. The hold-N
// cases draw every gap from one exponential, which is why they once
// crowned a width rule that degraded to a linear scan on real runs;
// fleetShape is the one tracked in the Makefile's HOT_BENCH.
func BenchmarkQueue(b *testing.B) {
	for _, k := range queueKinds {
		b.Run(k.name, func(b *testing.B) {
			b.Run("afterFire", func(b *testing.B) {
				e := k.engine()
				fn := func(*Engine) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.After(1, "b", fn)
					e.RunAll()
				}
			})
			for _, hold := range []int{64, 1024, 32768} {
				b.Run(holdName(hold), func(b *testing.B) {
					e := k.engine()
					rng := rand.New(rand.NewSource(1))
					fn := func(*Engine) {}
					for i := 0; i < hold; i++ {
						e.After(Duration(rng.ExpFloat64()), "h", fn)
					}
					b.ReportAllocs()
					b.ResetTimer()
					// Replace the minimum with a fresh arrival each step:
					// queue size stays at hold, clock advances.
					for i := 0; i < b.N; i++ {
						e.After(Duration(rng.ExpFloat64()), "h", fn)
						e.Run(e.Now()) // fire everything due now
						for e.Pending() > hold {
							e.Run(e.Now() + Duration(rng.ExpFloat64()*1e-3))
						}
					}
				})
			}
			b.Run("fleetShape", func(b *testing.B) {
				e := k.engine()
				s := newFleetShape(e, 1, shapeHolds[0].chains, nil)
				s.run(e, 5000)
				b.ReportAllocs()
				b.ResetTimer()
				s.run(e, b.N)
			})
			b.Run("scheduleCancel", func(b *testing.B) {
				e := k.engine()
				fn := func(*Engine) {}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ev := e.After(1, "b", fn)
					e.Cancel(ev)
				}
			})
		})
	}
}

func holdName(n int) string {
	switch n {
	case 64:
		return "hold64"
	case 1024:
		return "hold1k"
	default:
		return "hold32k"
	}
}
