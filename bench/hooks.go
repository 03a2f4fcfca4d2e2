package main

import (
	"fmt"
	"time"

	"retail/internal/server"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Hook indices of hookTotals.
const (
	hookArrival = iota
	hookReady
	hookStart
	hookComplete
	hookSink // the CompletedSink, not a manager hook
	hookCount
)

var hookNames = [hookCount]string{"Arrival", "Ready", "Start", "Complete", "CompletedSink"}

// hookTotals is what the decorators of one run add up: calls and time per
// hook, and the pipeline depth Algorithm 1 saw where it ran.
type hookTotals struct {
	tr    *tracer // nil = no sampled spans
	calls [hookCount]int64
	ns    [hookCount]int64
	// depthSum/depthN: pipeline members (head, queue, newcomer) at the
	// hooks in which ReTail decides.
	depthSum, depthN int64
}

// hookTimer decorates one server's Hooks with timing: totals for every
// call, a span record for one request in 1024. It observes only.
type hookTimer struct {
	inner server.Hooks
	t     *hookTotals
}

// decorate wraps srv's current hooks.
func (t *hookTotals) decorate(srv *server.Server) {
	srv.Hooks = &hookTimer{inner: srv.Hooks, t: t}
}

func (t *hookTotals) add(i int, r *workload.Request, t0, t1 time.Time) {
	t.calls[i]++
	t.ns[i] += int64(t1.Sub(t0))
	if r.ID&1023 == 0 {
		layer := "manager"
		if i == hookSink {
			layer = "stats"
		}
		t.tr.record(layer, hookNames[i], r.ID+1, 0, t0, t1)
	}
}

func (h *hookTimer) Arrival(e *sim.Engine, w *server.Worker, r *workload.Request) bool {
	if w.Current() != nil { // ReTail re-decides the running request with the newcomer appended
		h.t.depthSum += int64(w.Outstanding() + 1)
		h.t.depthN++
	}
	t0 := time.Now()
	ok := h.inner.Arrival(e, w, r)
	h.t.add(hookArrival, r, t0, time.Now())
	return ok
}

func (h *hookTimer) Ready(e *sim.Engine, w *server.Worker, r *workload.Request) {
	t0 := time.Now()
	h.inner.Ready(e, w, r)
	h.t.add(hookReady, r, t0, time.Now())
}

func (h *hookTimer) Start(e *sim.Engine, w *server.Worker, r *workload.Request) {
	h.t.depthSum += int64(w.Outstanding())
	h.t.depthN++
	t0 := time.Now()
	h.inner.Start(e, w, r)
	h.t.add(hookStart, r, t0, time.Now())
}

func (h *hookTimer) Complete(e *sim.Engine, w *server.Worker, r *workload.Request) {
	t0 := time.Now()
	h.inner.Complete(e, w, r)
	h.t.add(hookComplete, r, t0, time.Now())
}

// wrapSink times srv's CompletedSink. core.Run installs its sink after
// Instrument returns, so the wrap happens in an event at time zero,
// before the first arrival.
func (t *hookTotals) wrapSink(e *sim.Engine, srv *server.Server) {
	e.At(0, "bench.wrap", func(*sim.Engine) {
		inner := srv.CompletedSink
		if inner == nil {
			return
		}
		srv.CompletedSink = func(en *sim.Engine, r *workload.Request) {
			t0 := time.Now()
			inner(en, r)
			t.add(hookSink, r, t0, time.Now())
		}
	})
}

// perReq returns hook i's mean cost per request with the decorator's own
// clock reads taken out.
func (t *hookTotals) perReq(i int, reqs, clockNs float64) float64 {
	v := (float64(t.ns[i]) - float64(t.calls[i])*clockNs) / reqs
	if v < 0 {
		v = 0
	}
	return v
}

// alg1Row estimates Algorithm 1's own share: decisions per request times
// the probed cost of policy.Alg1 at the mean pipeline depth seen, read
// off the q1/q8/q64 probes by linear interpolation. It is a row of the
// budget tables only; the manager's whole cost is measured, not estimated.
func (e *env) alg1Row(t *hookTotals, decisions int, reqs float64) (budgetRow, bool) {
	q1, ok1 := e.probe("policy.alg1_ns_q1")
	q8, ok8 := e.probe("policy.alg1_ns_q8")
	q64, ok64 := e.probe("policy.alg1_ns_q64")
	if !ok1 || !ok8 || !ok64 || t.depthN == 0 {
		return budgetRow{}, false
	}
	depth := float64(t.depthSum) / float64(t.depthN)
	var cost float64
	switch {
	case depth <= 8:
		cost = q1 + (q8-q1)*(depth-1)/7
	default:
		cost = q8 + (q64-q8)*(depth-8)/56
	}
	per := float64(decisions) / reqs
	return budgetRow{"(of which Algorithm 1, estimated)", per * cost,
		fmt.Sprintf("%.2f decisions/request x policy.Alg1 at mean depth %.2f (probes)", per, depth)}, true
}
