// Package policy is the clock-agnostic decision core of the ReTail
// reproduction: Algorithm 1 (frequency enumeration over a worker's
// pipeline), the QoS′ latency monitor (§VI-C), the JSQ dispatch rule,
// the graceful-degradation predicates (shed/deadline) and the baseline
// policies (Rubik, Gemini, EETL).
//
// The package deliberately knows nothing about *how* time advances. Both
// runtimes adapt it:
//
//   - internal/manager binds it to the discrete-event simulator: Time is
//     sim.Time (virtual seconds), ticks are sim.Engine events;
//   - internal/live binds it to the wall clock: Time is monotonic seconds
//     since the server's epoch, ticks come from a time.Ticker.
//
// Because both sim.Time and wall-clock seconds are float64 seconds, the
// same float64 arithmetic — in the same order — runs on both sides. That
// is what makes sim↔live decision parity a byte-level property (see the
// replay harness in internal/experiments) rather than an approximate one.
//
// The package must not import internal/sim, internal/server,
// internal/live, internal/manager, or the time package (enforced by a
// depguard rule in .golangci.yml and by TestPolicyPackageIsClockAgnostic).
package policy

// Time is a point in time, in seconds. In the simulator it carries
// virtual time (sim.Time is also a float64 seconds scalar, so conversion
// is the identity); in the live runtime it is monotonic seconds since
// the server's epoch. Using an alias rather than a defined type keeps
// every arithmetic expression bit-identical with the pre-refactor code.
type Time = float64

// Duration is a span of time in seconds.
type Duration = float64

// Clock supplies the current time to components that need it. Adapters
// implement it over sim.Engine.Now or a monotonic wall-clock reading.
type Clock interface {
	Now() Time
}

// Timer schedules a callback to run after a delay. The name labels the
// scheduled work (the simulator uses it for deterministic event tracing;
// wall-clock adapters may ignore it). Implementations must invoke fn
// with the time at which it actually fires.
type Timer interface {
	AfterFunc(d Duration, name string, fn func(now Time))
}

// RunMonitor drives a periodic tick on the given timer: it schedules
// tick every interval, rescheduling from within the callback so the
// cadence matches a self-rescheduling event chain (the simulator's
// historical behavior — each tick lands exactly interval after the
// previous one in virtual time).
func RunMonitor(t Timer, interval Duration, name string, tick func(now Time)) {
	var fire func(now Time)
	fire = func(now Time) {
		tick(now)
		t.AfterFunc(interval, name, fire)
	}
	t.AfterFunc(interval, name, fire)
}
