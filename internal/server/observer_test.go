package server

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"retail/internal/sim"
	"retail/internal/workload"
)

// call is one hook or observer invocation.
type call struct {
	who, hook string // "manager" or "observer"; the method
	id        uint64
}

func (c call) String() string { return fmt.Sprintf("%s.%s#%d", c.who, c.hook, c.id) }

// callLog is the one ordered record the stub manager and the recording
// observer share: every hook and observer call lands in it as it
// happens, so the order between the two is the order the server called
// them in.
type callLog []call

func (l *callLog) add(who, hook string, r *workload.Request) {
	*l = append(*l, call{who, hook, r.ID})
}

// thirdDropper is a stub manager: it drops every third arrival and, at
// every start, decides for the starting request when the server has a
// decision sink.
type thirdDropper struct {
	log     *callLog
	arrived int
	emitted int
}

func (m *thirdDropper) Arrival(e *sim.Engine, w *Worker, r *workload.Request) bool {
	m.log.add("manager", "Arrival", r)
	m.arrived++
	return m.arrived%3 != 0
}

func (m *thirdDropper) Ready(e *sim.Engine, w *Worker, r *workload.Request) {
	m.log.add("manager", "Ready", r)
}

func (m *thirdDropper) Start(e *sim.Engine, w *Worker, r *workload.Request) {
	m.log.add("manager", "Start", r)
	if w.WantsDecisions() {
		m.emitted++
		w.RecordDecision(Decision{At: e.Now(), Worker: w.ID, Head: r.ID, Binding: r.ID})
	}
}

func (m *thirdDropper) Complete(e *sim.Engine, w *Worker, r *workload.Request) {
	m.log.add("manager", "Complete", r)
}

// recorder is an observer that logs every call into the shared log.
type recorder struct{ log *callLog }

func (o recorder) Arrived(e *sim.Engine, w *Worker, r *workload.Request, kept bool) {
	o.log.add("observer", fmt.Sprintf("Arrived(kept=%t)", kept), r)
}
func (o recorder) Ready(e *sim.Engine, w *Worker, r *workload.Request) {
	o.log.add("observer", "Ready", r)
}
func (o recorder) Started(e *sim.Engine, w *Worker, r *workload.Request) {
	o.log.add("observer", "Started", r)
}
func (o recorder) Completed(e *sim.Engine, w *Worker, r *workload.Request) {
	o.log.add("observer", "Completed", r)
}

// sinkObserver is an observer that also takes decisions.
type sinkObserver struct {
	NoopObserver
	heads []uint64
}

func (o *sinkObserver) RecordDecision(d Decision) { o.heads = append(o.heads, d.Head) }

// observedRun pushes twelve requests, a burst of back-to-back arrivals,
// through one worker under the stub manager with a recording observer
// and then the extra observers. Odd requests carry a late feature
// (stage 1 on arrival, or folded into execution), even ones do not, so
// every path to Ready runs.
func observedRun(t *testing.T, extra ...Observer) (*callLog, *thirdDropper, *Server) {
	t.Helper()
	log := &callLog{}
	app := fixedApp{service: 2 * sim.Millisecond, cf: 1}
	s := newServer(t, app, 1, func(r *workload.Request) float64 { return float64(r.ID%2) * 0.2 })
	m := &thirdDropper{log: log}
	s.Hooks = m
	s.Observe(recorder{log})
	for _, o := range extra {
		s.Observe(o)
	}
	e := sim.NewEngine()
	for i := 1; i <= 12; i++ {
		r := mkReq(2*sim.Millisecond, 1)
		r.ID = uint64(i)
		e.At(sim.Time(i)*sim.Millisecond/2, "submit", func(en *sim.Engine) { s.Submit(en, r) })
	}
	e.RunAll()
	return log, m, s
}

// hooksOf returns who.hook for each call about request id, in order.
func (l callLog) hooksOf(id uint64) []string {
	var out []string
	for _, c := range l {
		if c.id == id {
			out = append(out, c.who+"."+c.hook)
		}
	}
	return out
}

// GIVEN a manager that drops every third arrival and an observer
// sharing its call log, WHEN twelve requests arrive, THEN each dropped
// request reaches the observer once, as Arrived(kept=false) right after
// the manager's Arrival, and nothing about it follows; every kept
// request runs its whole lifecycle.
func TestGivenAManagerDroppingEveryThird_WhenRequestsArrive_ThenADropEndsAtArrivedKeptFalse(t *testing.T) {
	log, _, s := observedRun(t)
	if s.Dropped() != 4 || s.Completed() != 8 {
		t.Fatalf("dropped %d completed %d, want 4 and 8", s.Dropped(), s.Completed())
	}
	for id := uint64(1); id <= 12; id++ {
		calls := log.hooksOf(id)
		if id%3 == 0 {
			want := []string{"manager.Arrival", "observer.Arrived(kept=false)"}
			if !slices.Equal(calls, want) {
				t.Errorf("dropped request %d: calls %v, want %v", id, calls, want)
			}
			continue
		}
		if len(calls) != 8 || calls[1] != "observer.Arrived(kept=true)" {
			t.Errorf("kept request %d: calls %v, want the four hooks each observed once", id, calls)
		}
	}
}

// GIVEN the same run, WHEN each hook fires, THEN Arrived and Started
// come straight after the manager's Arrival and Start, and Ready and
// Completed straight before the manager's Ready and Complete.
func TestGivenAnObserver_WhenAHookFires_ThenArrivedAndStartedFollowTheManagerAndReadyAndCompletedPrecedeIt(t *testing.T) {
	log, _, _ := observedRun(t)
	next := map[string]string{ // a call → the call that must come straight after it
		"manager.Arrival":    "observer.Arrived",
		"manager.Start":      "observer.Started",
		"observer.Ready":     "manager.Ready",
		"observer.Completed": "manager.Complete",
	}
	seen := map[string]int{}
	for i, c := range *log {
		want, ok := next[c.who+"."+c.hook]
		if !ok {
			continue
		}
		seen[c.who+"."+c.hook]++
		if i+1 == len(*log) {
			t.Fatalf("%v is the last call; want %s#%d after it", c, want, c.id)
		}
		got := (*log)[i+1]
		if !strings.HasPrefix(got.who+"."+got.hook, want) || got.id != c.id {
			t.Errorf("%v followed by %v, want %s#%d", c, got, want, c.id)
		}
	}
	for first := range next {
		if seen[first] == 0 {
			t.Errorf("no %s in the log: the run did not exercise it", first)
		}
	}
}

// GIVEN one observer that takes decisions beside one that does not,
// WHEN the manager decides at every start, THEN the sink receives every
// decision in order; and GIVEN only observers that take none, THEN the
// manager is told no one wants decisions and builds none.
func TestGivenADecisionSinkObserver_WhenTheManagerDecides_ThenTheSinkReceivesEveryDecision(t *testing.T) {
	sink := &sinkObserver{}
	log, m, _ := observedRun(t, sink)
	var started []uint64
	for _, c := range *log {
		if c.who == "manager" && c.hook == "Start" {
			started = append(started, c.id)
		}
	}
	if len(started) != 8 || m.emitted != 8 || !slices.Equal(sink.heads, started) {
		t.Fatalf("sink got heads %v, manager emitted %d, starts %v", sink.heads, m.emitted, started)
	}

	_, m, _ = observedRun(t, &NoopObserver{})
	if m.emitted != 0 {
		t.Fatalf("manager emitted %d decisions with no sink registered", m.emitted)
	}
}
