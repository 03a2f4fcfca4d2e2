// Package manager implements the power managers the paper evaluates:
// ReTail itself (§VI) and the related work it compares against — Rubik,
// Gemini, Adrenaline, a Pegasus-style coarse-grained controller, and the
// max-frequency default. Every manager attaches to a server as its Hooks
// implementation and manipulates per-core (or, for coarse managers,
// socket-wide) frequency.
package manager

import (
	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Manager is a power-management policy bound to one application's server.
type Manager interface {
	server.Hooks
	// Name identifies the policy in experiment output.
	Name() string
	// Attach installs the manager on the server and starts any periodic
	// work (latency monitors, controllers). Call once, before traffic.
	Attach(e *sim.Engine, s *server.Server)
}

// AppendObservableFeatures overwrites dst (resliced to length zero, grown
// only if capacity is insufficient) with the feature vector a manager may
// legitimately use for a request right now, and returns it: application
// features (lateness > 0) are zeroed until stage 1 has extracted them.
// Managers that only ever use request features (Gemini, Adrenaline) pass
// requestOnly=true to zero all application features regardless of
// readiness.
func AppendObservableFeatures(dst []float64, specs []workload.FeatureSpec, r *workload.Request, ready, requestOnly bool) []float64 {
	dst = append(dst[:0], r.Features...)
	if requestOnly || !ready {
		for j, s := range specs {
			if s.Lateness > 0 {
				dst[j] = 0
			}
		}
	}
	return dst
}
