// Package server models the multithreaded latency-critical server of the
// paper's runtime (§VI, Fig 10): one worker per core, a FCFS queue per
// worker, run-to-completion request execution, and ReTail's two-stage
// split in which feature extraction (stage 1) runs eagerly on request
// arrival — interrupting stage-2 work if necessary — so that queued
// requests expose their feature values before execution.
//
// Execution respects per-core DVFS: when a core's effective frequency
// changes mid-request, the remaining work is rescaled (only the compute
// fraction stretches). An interference factor models colocation/system
// noise by inflating service demands, which is how the model-drift
// experiments (Figs 13–14) perturb the environment.
package server

import (
	"math/rand"

	"retail/internal/cpu"
	"retail/internal/policy"
	"retail/internal/sim"
	"retail/internal/workload"
)

// Hooks is the power manager's attachment surface: it holds the one
// manager, whose Arrival verdict and Start frequency steer the run.
// Components that only watch — telemetry, the ledger, the flight
// recorder — register as Observers instead. All methods may be nil in a
// Hooks implementation via NoopHooks embedding.
type Hooks interface {
	// Arrival fires when a request reaches a worker's queue, before
	// anything else. Returning false drops the request (Gemini's load
	// shedding); dropped requests never execute.
	Arrival(e *sim.Engine, w *Worker, r *workload.Request) bool
	// Ready fires when the request's application features have been
	// extracted (stage 1 complete).
	Ready(e *sim.Engine, w *Worker, r *workload.Request)
	// Start fires when the request begins stage-2 execution; managers set
	// the worker's core frequency here.
	Start(e *sim.Engine, w *Worker, r *workload.Request)
	// Complete fires when the request finishes, after timestamps are
	// recorded.
	Complete(e *sim.Engine, w *Worker, r *workload.Request)
}

// NoopHooks implements Hooks with no behavior; embed it to implement only
// some callbacks.
type NoopHooks struct{}

func (NoopHooks) Arrival(*sim.Engine, *Worker, *workload.Request) bool { return true }
func (NoopHooks) Ready(*sim.Engine, *Worker, *workload.Request)        {}
func (NoopHooks) Start(*sim.Engine, *Worker, *workload.Request)        {}
func (NoopHooks) Complete(*sim.Engine, *Worker, *workload.Request)     {}

// Observer watches a server's request lifecycle without steering it.
// The server calls every registered observer, in registration order, at
// fixed points around the manager's hooks: Arrived and Started after the
// manager's Arrival and Start (Arrived with the manager's verdict; a
// dropped request gets no further calls), Ready and Completed before the
// manager's Ready and Complete. CompletedSink and DroppedSink run after
// all of them, since they recycle the request. An observer that also
// implements DecisionSink receives every decision made on the server.
type Observer interface {
	Arrived(e *sim.Engine, w *Worker, r *workload.Request, kept bool)
	Ready(e *sim.Engine, w *Worker, r *workload.Request)
	Started(e *sim.Engine, w *Worker, r *workload.Request)
	Completed(e *sim.Engine, w *Worker, r *workload.Request)
}

// NoopObserver implements Observer with no behavior; embed it to
// implement only some callbacks.
type NoopObserver struct{}

func (NoopObserver) Arrived(*sim.Engine, *Worker, *workload.Request, bool) {}
func (NoopObserver) Ready(*sim.Engine, *Worker, *workload.Request)         {}
func (NoopObserver) Started(*sim.Engine, *Worker, *workload.Request)       {}
func (NoopObserver) Completed(*sim.Engine, *Worker, *workload.Request)     {}

// DispatchPolicy selects the worker for an arriving request.
type DispatchPolicy int

const (
	// JoinShortestQueue sends each request to the worker with the fewest
	// outstanding requests (running + queued), ties broken round-robin.
	JoinShortestQueue DispatchPolicy = iota
	// RoundRobin cycles through workers regardless of occupancy.
	RoundRobin
)

// Config parameterizes a Server.
type Config struct {
	App     workload.App
	Workers int
	Grid    *cpu.Grid
	Power   cpu.PowerModel
	Trans   cpu.TransitionModel
	Seed    int64
	Policy  DispatchPolicy
	// Stage1Frac returns the fraction of a request's service time consumed
	// by feature extraction (stage 1) — typically the maximum lateness of
	// the selected application features. Nil means 0 (no split needed).
	Stage1Frac func(*workload.Request) float64
}

// Server owns the worker pool and the socket the workers run on.
type Server struct {
	App    workload.App
	Socket *cpu.Socket
	Hooks  Hooks

	workers    []*Worker
	policy     DispatchPolicy
	rrNext     int
	jsq        policy.JSQ
	jsqLoad    func(int) int // persistent closure: pick allocates nothing
	stage1Frac func(*workload.Request) float64

	interference float64

	observers []Observer
	sinks     []DecisionSink // the observers that take decisions

	// CompletedSink, when set, receives every finished request.
	CompletedSink func(e *sim.Engine, r *workload.Request)
	// DroppedSink, when set, receives every dropped request.
	DroppedSink func(e *sim.Engine, r *workload.Request)

	completed int
	dropped   int
}

// New builds a server with cfg.Workers workers, each pinned to its own
// core (the paper pins one thread per core with taskset).
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		panic("server: need at least one worker")
	}
	if cfg.Grid == nil {
		cfg.Grid = cpu.DefaultGrid()
	}
	s := &Server{
		App:          cfg.App,
		Socket:       cpu.NewSocket(cfg.Workers, cfg.Grid, cfg.Power, cfg.Trans, cfg.Seed),
		Hooks:        NoopHooks{},
		policy:       cfg.Policy,
		stage1Frac:   cfg.Stage1Frac,
		interference: 1,
	}
	for i := 0; i < cfg.Workers; i++ {
		w := &Worker{ID: i, server: s, core: s.Socket.Cores[i]}
		core := s.Socket.Cores[i]
		core.OnChange = func(e *sim.Engine, _ cpu.Level) { w.onFreqChange(e) }
		// Bind the worker's event callbacks once: the per-request hot path
		// (stage-1 ready, completion) then schedules via AtCall with no
		// closure allocation.
		w.readyFn = func(en *sim.Engine, arg any) { w.ready(en, arg.(*workload.Request)) }
		w.completeFn = func(en *sim.Engine, _ any) { w.complete(en) }
		s.workers = append(s.workers, w)
	}
	s.jsqLoad = func(i int) int { return s.workers[i].Outstanding() }
	return s
}

// Observe registers o to watch every request from now on (see Observer).
// If o also implements DecisionSink, it receives the server's decisions.
func (s *Server) Observe(o Observer) {
	s.observers = append(s.observers, o)
	if ds, ok := o.(DecisionSink); ok {
		s.sinks = append(s.sinks, ds)
	}
}

// Workers returns the worker pool.
func (s *Server) Workers() []*Worker { return s.workers }

// Completed returns the count of finished requests.
func (s *Server) Completed() int { return s.completed }

// Dropped returns the count of shed requests.
func (s *Server) Dropped() int { return s.dropped }

// Interference returns the current service-time inflation factor.
func (s *Server) Interference() float64 { return s.interference }

// SetInterference changes the service-time inflation factor (1 = none),
// rescaling the remaining work of every in-flight request, as happens when
// a colocated job suddenly contends for shared resources.
func (s *Server) SetInterference(e *sim.Engine, factor float64) {
	if factor <= 0 {
		panic("server: interference factor must be positive")
	}
	for _, w := range s.workers {
		w.advanceProgress(e.Now())
	}
	s.interference = factor
	for _, w := range s.workers {
		w.rescheduleCompletion(e)
	}
}

// SetStage1Frac installs the feature-extraction split function, typically
// after feature selection has determined which application features (and
// hence which lateness) the predictor needs.
func (s *Server) SetStage1Frac(f func(*workload.Request) float64) { s.stage1Frac = f }

// Submit routes a request to a worker per the dispatch policy. It is the
// generator's sink.
func (s *Server) Submit(e *sim.Engine, r *workload.Request) {
	r.Recv = e.Now() // t2: same-host client/server, no network delay modeled
	w := s.pick()
	w.enqueue(e, r)
}

func (s *Server) pick() *Worker {
	if s.policy == RoundRobin {
		w := s.workers[s.rrNext]
		s.rrNext = (s.rrNext + 1) % len(s.workers)
		return w
	}
	// JSQ with rotating tie-break (policy.JSQ — the shared rule both
	// runtimes dispatch with; see that type for why the rotation pointer
	// follows the chosen index).
	return s.workers[s.jsq.Pick(len(s.workers), s.jsqLoad)]
}

// QueuedTotal returns the number of requests waiting (not running) across
// all workers.
func (s *Server) QueuedTotal() int {
	n := 0
	for _, w := range s.workers {
		n += len(w.queue) - w.qhead
	}
	return n
}

// Worker is one service thread pinned to one core with a private FCFS
// queue.
type Worker struct {
	ID     int
	server *Server
	core   *cpu.Core

	// queue is the FCFS backlog; the live window is queue[qhead:]. The
	// head index (rather than re-slicing queue = queue[1:]) lets the
	// backing array be reused once the window empties, so steady-state
	// enqueue/dequeue cycles never reallocate.
	queue   []*workload.Request
	qhead   int
	current *exec
	// execSlot is the worker's only exec record: a worker runs one request
	// at a time, so start() reuses this slot instead of allocating per
	// request. current points at it while a request is in flight.
	execSlot exec

	// readyFn/completeFn are the worker's event callbacks, bound once in
	// New (see AtCall in package sim).
	readyFn    func(*sim.Engine, any)
	completeFn func(*sim.Engine, any)
}

// exec tracks the in-flight request's progress so mid-request frequency
// changes, interrupts and interference rescaling all resolve to a single
// "fraction complete" number.
type exec struct {
	req *workload.Request
	// stage2Scale is the fraction of the request's full service that
	// remains for stage 2 (1 if stage 1 was folded into execution).
	stage2Scale float64
	// stage1Charged is the stage-1 time pre-paid via interrupt, folded
	// back into Start so measured service time stays consistent.
	stage1Charged sim.Duration

	progress       float64  // fraction of stage-2 completed
	lastT          sim.Time // progress accounted through here
	interruptUntil sim.Time // progress paused until here (stage-1 interrupts)
	// curDur caches the stage-2 duration under the frequency/interference
	// in effect since lastT, so progress earned before a change is credited
	// at the old rate.
	curDur       sim.Duration
	readyEv      sim.EventRef
	completionEv sim.EventRef
}

// Core returns the worker's pinned core.
func (w *Worker) Core() *cpu.Core { return w.core }

// Current returns the executing request, or nil.
func (w *Worker) Current() *workload.Request {
	if w.current == nil {
		return nil
	}
	return w.current.req
}

// Queue returns the waiting requests in FCFS order. The slice is the
// worker's own; callers must not modify it.
func (w *Worker) Queue() []*workload.Request { return w.queue[w.qhead:] }

// Outstanding returns queued plus running request count.
func (w *Worker) Outstanding() int {
	n := len(w.queue) - w.qhead
	if w.current != nil {
		n++
	}
	return n
}

func (w *Worker) stage1FracOf(r *workload.Request) float64 {
	if w.server.stage1Frac == nil {
		return 0
	}
	f := w.server.stage1Frac(r)
	if f < 0 {
		return 0
	}
	if f > 0.5 {
		f = 0.5 // features later than this were rejected by selection
	}
	return f
}

// fullDuration returns the request's complete service duration at the
// core's current effective frequency under current interference.
func (w *Worker) fullDuration(r *workload.Request) sim.Duration {
	g := w.core.Grid()
	return r.ServiceAt(w.core.EffectiveFreq(), g.MaxFreq(), w.server.interference)
}

// WantsDecisions reports whether any observer of w's server takes
// decisions. Managers build a Decision — and read whatever attribution it
// carries — only when it does, so an unwatched decide path stays as cheap
// as one with no sink at all.
func (w *Worker) WantsDecisions() bool { return len(w.server.sinks) > 0 }

// RecordDecision hands d to every decision-taking observer of w's server.
func (w *Worker) RecordDecision(d Decision) {
	for _, k := range w.server.sinks {
		k.RecordDecision(d)
	}
}

// ready runs the stage-1-complete callbacks: observers, then the manager.
func (w *Worker) ready(e *sim.Engine, r *workload.Request) {
	for _, o := range w.server.observers {
		o.Ready(e, w, r)
	}
	w.server.Hooks.Ready(e, w, r)
}

func (w *Worker) enqueue(e *sim.Engine, r *workload.Request) {
	kept := w.server.Hooks.Arrival(e, w, r)
	for _, o := range w.server.observers {
		o.Arrived(e, w, r, kept)
	}
	if !kept {
		r.Dropped = true
		w.server.dropped++
		if w.server.DroppedSink != nil {
			w.server.DroppedSink(e, r)
		}
		return
	}
	frac := w.stage1FracOf(r)
	if w.current == nil && len(w.queue) == w.qhead {
		// Idle worker: the request starts immediately; stage 1 is simply
		// the first frac of its execution, so features become observable
		// partway in.
		w.queue = append(w.queue, r)
		w.start(e, 1, 0, frac)
		return
	}
	w.queue = append(w.queue, r)
	if frac == 0 {
		// Request features only: observable the moment the packet arrives.
		w.ready(e, r)
		return
	}
	// Busy worker: stage 1 interrupts the running request (the paper's
	// workers always prioritize stage 1 so queued requests expose their
	// features). The interrupt time is charged to the running request and
	// credited back to this one when it starts.
	d1 := sim.Duration(frac * float64(w.fullDuration(r)))
	if cur := w.current; cur != nil {
		w.advanceProgress(e.Now())
		if cur.interruptUntil < e.Now() {
			cur.interruptUntil = e.Now()
		}
		cur.interruptUntil += d1
		w.rescheduleCompletion(e)
	}
	e.AfterCall(d1, "server.stage1", w.readyFn, r)
	r.Stage1Done = true
	r.Stage1Time = d1
}

// start pops the queue head and begins stage-2 execution. stage2Scale and
// stage1Charged describe how much of the full service remains; readyFrac,
// when positive, schedules the Ready callback partway into execution (the
// idle-arrival path where stage 1 is folded in).
func (w *Worker) start(e *sim.Engine, stage2Scale float64, stage1Charged sim.Duration, readyFrac float64) {
	r := w.queue[w.qhead]
	w.queue[w.qhead] = nil
	w.qhead++
	if w.qhead == len(w.queue) {
		w.queue = w.queue[:0]
		w.qhead = 0
	}
	r.Start = e.Now() - stage1Charged
	w.execSlot = exec{
		req:           r,
		stage2Scale:   stage2Scale,
		stage1Charged: stage1Charged,
		lastT:         e.Now(),
	}
	w.current = &w.execSlot
	w.core.SetBusy(e, true)
	w.server.Hooks.Start(e, w, r)
	for _, o := range w.server.observers {
		o.Started(e, w, r)
	}
	if readyFrac > 0 {
		d1 := sim.Duration(readyFrac * float64(w.fullDuration(r)))
		w.current.readyEv = e.AfterCall(d1, "server.ready", w.readyFn, r)
	} else if readyFrac == 0 && !r.Stage1Done {
		w.ready(e, r)
	}
	w.rescheduleCompletion(e)
}

// stage2Duration returns the current total stage-2 duration at the core's
// effective frequency.
func (w *Worker) stage2Duration() sim.Duration {
	c := w.current
	return sim.Duration(c.stage2Scale * float64(w.fullDuration(c.req)))
}

// advanceProgress accounts execution progress up to now at the current
// frequency/interference.
func (w *Worker) advanceProgress(now sim.Time) {
	c := w.current
	if c == nil {
		return
	}
	from := c.lastT
	if c.interruptUntil > from {
		from = c.interruptUntil
	}
	if now > from {
		if c.curDur > 0 {
			c.progress += float64(now-from) / float64(c.curDur)
		} else {
			c.progress = 1
		}
		if c.progress > 1 {
			c.progress = 1
		}
	}
	c.lastT = now
}

// rescheduleCompletion re-derives the completion event from current
// progress, frequency, interference and pending interrupt time.
func (w *Worker) rescheduleCompletion(e *sim.Engine) {
	c := w.current
	if c == nil {
		return
	}
	e.Cancel(c.completionEv) // no-op on the zero ref or an already-fired event
	c.curDur = w.stage2Duration()
	remaining := sim.Duration((1 - c.progress) * float64(c.curDur))
	if c.interruptUntil > e.Now() {
		remaining += c.interruptUntil - e.Now()
	}
	c.completionEv = e.AfterCall(remaining, "server.complete", w.completeFn, nil)
}

func (w *Worker) onFreqChange(e *sim.Engine) {
	w.advanceProgress(e.Now())
	if w.current != nil {
		w.current.req.LevelShifts++
		w.current.req.LastLevelShift = e.Now()
	}
	w.rescheduleCompletion(e)
}

func (w *Worker) complete(e *sim.Engine) {
	c := w.current
	r := c.req
	// readyEv may have fired long ago; Cancel on a stale ref is a safe
	// no-op (the event node may since have been recycled for another
	// event — the generation stamp guarantees we can't touch it).
	e.Cancel(c.readyEv)
	w.current = nil
	r.End = e.Now()
	r.ServedLevel = int(w.core.EffectiveLevel())
	w.server.completed++
	for _, o := range w.server.observers {
		o.Completed(e, w, r)
	}
	w.server.Hooks.Complete(e, w, r)
	if w.server.CompletedSink != nil {
		w.server.CompletedSink(e, r)
	}
	if len(w.queue) > w.qhead {
		next := w.queue[w.qhead]
		if next.Stage1Done {
			frac := w.stage1FracOf(next)
			w.start(e, 1-frac, next.Stage1Time, -1)
		} else {
			// Request features only (or stage 1 still pending — treat the
			// remaining extraction as folded into execution).
			w.start(e, 1, 0, -1)
		}
	} else {
		w.core.SetBusy(e, false)
	}
}

// Delay pauses the worker's in-flight request for d — the core is doing
// something other than request work (e.g. an on-critical-path model
// inference, as in Gemini). No-op when idle.
func (w *Worker) Delay(e *sim.Engine, d sim.Duration) {
	c := w.current
	if c == nil || d <= 0 {
		return
	}
	w.advanceProgress(e.Now())
	if c.interruptUntil < e.Now() {
		c.interruptUntil = e.Now()
	}
	c.interruptUntil += d
	w.rescheduleCompletion(e)
}

// ProgressFraction returns how much of the running request's work has
// completed (0 when idle, approaching 1 near completion). Real power
// managers obtain the equivalent from hardware cycle counters (Rubik and
// EETL both track per-request progress), so exposing it to managers is not
// an oracle.
func (w *Worker) ProgressFraction(now sim.Time) float64 {
	c := w.current
	if c == nil {
		return 0
	}
	w.advanceProgress(now)
	return c.progress
}

// EstimateRemaining returns the predicted time for the running request to
// finish at the current frequency (0 when idle). Managers use it for
// queueing-delay estimates.
func (w *Worker) EstimateRemaining(now sim.Time) sim.Duration {
	c := w.current
	if c == nil {
		return 0
	}
	w.advanceProgress(now)
	rem := sim.Duration((1 - c.progress) * float64(w.stage2Duration()))
	if c.interruptUntil > now {
		rem += c.interruptUntil - now
	}
	return rem
}

// RandomizedSeed derives a child seed; helper for experiment plumbing.
func RandomizedSeed(base, salt int64) int64 {
	return rand.New(rand.NewSource(base ^ salt*0x9E3779B97F4A7C)).Int63()
}
