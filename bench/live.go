package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"time"

	"retail/internal/workload"
)

// live-loopback: a child of this binary hosts live.NewServer (2 workers,
// the calibrated LR predictor, MockBackend, full-queue Algorithm 1, a
// no-op executor, xapian QoS); this process is the load generator.
//
// Open loop: liveConns connections, one sender and one receiver goroutine
// each, a pre-drawn Poisson schedule at 5k, 15k then 30k requests per
// second, latency stamped from the scheduled send time. Closed loop:
// liveConns connections x liveInflight requests in flight, no timer in
// the loop.
const (
	liveWorkers  = 2
	liveConns    = 2
	liveInflight = 32
	liveSegments = 5               // per open-loop step, at most: p99 and server CPU are medians over them
	liveSegmentN = 1000            // requests a segment needs for its p99 to have ten samples beyond it
	liveDrain    = 2 * time.Second // wait for answers after the last send
	liveLagShare = 0.5             // a step whose generator-lag p99 exceeds this share of its p99 is generator-bound
)

type liveLoopback struct {
	srv   *serverProc
	feats [][]float64
	qosUs float64 // the app's QoS latency, the limit of live_max_rate_ok_rps
}

func (w *liveLoopback) setup(e *env) error {
	// Senders sit in nanosleep and receivers in read: give each its own
	// P so a sleeping sender never holds up a receiver.
	if runtime.GOMAXPROCS(0) < 2*liveConns {
		runtime.GOMAXPROCS(2 * liveConns)
	}
	app := workload.ByName(benchApp)
	w.qosUs = float64(app.QoS().Latency) * 1e6
	rng := rand.New(rand.NewSource(e.seed))
	w.feats = make([][]float64, 512)
	for i := range w.feats {
		w.feats[i] = app.Generate(rng).Features
	}
	srv, err := startServer(e.seed)
	if err != nil {
		return err
	}
	w.srv = srv
	// One request end to end, so the first timed one does not pay for
	// the first accept.
	conn, err := net.Dial("tcp", srv.ready.Addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(appendRequest(nil, 1, nowNs(), w.feats[0])); err != nil {
		return err
	}
	line, err := bufio.NewReader(conn).ReadBytes('\n')
	if err != nil {
		return err
	}
	if r, ok := parseResponse(line); !ok || r.id != 1 {
		return fmt.Errorf("live: unexpected first response %q", line)
	}
	return nil
}

func (w *liveLoopback) close() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
}

// liveRun is everything one pass over the phases measured.
type liveRun struct {
	steps  [3]*stepResult
	closed *closedResult
	final  serverMark
}

func (w *liveLoopback) phases(e *env) (*liveRun, error) {
	run := &liveRun{}
	pass := "untraced"
	if e.tr != nil {
		pass = "traced"
	}
	for i, rate := range liveRates {
		end := e.tr.begin("live", fmt.Sprintf("open-loop %.0fk", rate/1e3))
		st, err := openStep(w.srv.ready.Addr, w.srv, w.feats, rate, e.sz.liveSteps[i], e.seed*10+int64(i), w.qosUs)
		end()
		if err != nil {
			return nil, err
		}
		// Generator health (TailBench++): a step whose generator fell
		// behind says nothing about the server.
		lagP99, p99 := median(st.segmentP99(genLag)), median(st.segmentP99(latency))
		st.genBound = st.sentRatio() < 0.99 || (st.sent >= liveSegmentN && lagP99 > liveLagShare*p99)
		e.res.Info = append(e.res.Info, fmt.Sprintf("%s, open loop %5.0f req/s: sent %d (ratio %.4f) answered %d dropped %d unanswered %d; p50 %.1f us, p99 %.1f us; generator lag p50 %.1f us, p99 %.1f us",
			pass, rate, st.sent, st.sentRatio(), st.answered, st.dropped, st.unanswered, median(st.lat), p99, median(st.stage(genLag)), lagP99))
		run.steps[i] = st
	}
	end := e.tr.begin("live", "closed-loop")
	cl, err := closedLoop(w.srv.ready.Addr, w.feats, e.sz.liveClosed)
	end()
	if err != nil {
		return nil, err
	}
	run.closed = cl
	e.res.Info = append(e.res.Info, fmt.Sprintf("%s, closed loop %d x %d in flight: %d completed, %d failed, %.0f req/s",
		pass, liveConns, liveInflight, cl.completed, cl.failed, median(cl.rates)))
	run.final, err = w.srv.mark(true)
	return run, err
}

// account folds a pass's operations into the result's attempted/failed:
// every request sent is one operation. A generator-bound step says
// nothing about the server, so on the workload that was asked for all of
// it counts as failed; on the reduced-size walk, whose steps are too
// short to judge a generator by, it is only noted.
func (run *liveRun) account(res *runResult, selected bool) {
	for _, st := range run.steps {
		res.Attempted += st.sent
		bad := st.dropped + st.unanswered + st.misordered
		if note := fmt.Sprintf("step %.0fk is generator-bound: sent ratio %.4f", st.rate/1e3, st.sentRatio()); st.genBound && selected {
			bad = st.sent
			res.Notes = append(res.Notes, note)
		} else if st.genBound {
			res.Info = append(res.Info, note)
		} else if bad > 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("step %.0fk: %d dropped, %d unanswered, %d mis-stamped of %d",
				st.rate/1e3, st.dropped, st.unanswered, st.misordered, st.sent))
		}
		res.Failed += bad
	}
	res.Attempted += run.closed.completed + run.closed.failed
	res.Failed += run.closed.failed
}

// setEndToEnd reports what a user of the runtime sees.
func (run *liveRun) setEndToEnd(res *runResult) {
	top := run.steps[2]
	res.set("req_per_s", 0, run.closed.rates...)
	res.set("cpu_s_per_mreq", 0, top.serverCPUPerReq()...)
	res.set("peak_rss_mb", run.final.RSSMB)
	res.set("live_p50_us", median(top.lat))
	res.set("live_p99_us", 0, top.segmentP99(latency)...)
	okRate := 0.0
	for _, st := range run.steps {
		if st.ok() {
			okRate = st.rate
		}
	}
	res.set("live_max_rate_ok_rps", okRate)
}

func (w *liveLoopback) measure(e *env) error {
	run, err := w.phases(e)
	if err != nil {
		e.res.check(false, "live phases: %v", err)
		return err
	}
	run.account(e.res, e.selected)
	run.setEndToEnd(e.res)
	return nil
}

// layers is the traced pass: the same phases, then the stage breakdown
// from the public Response stamps and this process's own clocks.
func (w *liveLoopback) layers(e *env) error {
	var plain *liveRun
	if e.selected {
		untraced := *e
		untraced.tr = nil
		var err error
		if plain, err = w.phases(&untraced); err != nil {
			e.res.check(false, "live phases, untraced: %v", err)
			return err
		}
		plain.account(e.res, e.selected)
	}
	run, err := w.phases(e)
	if err != nil {
		e.res.check(false, "live phases: %v", err)
		return err
	}
	run.account(e.res, e.selected)
	if plain == nil {
		plain = run
	}
	res := e.res
	// End-to-end numbers come from the untraced pass; cpu_s_per_mreq and
	// the other universal ones are not per-layer metrics.
	e2e := newResult(wLive, e.seed, false)
	plain.setEndToEnd(e2e)
	for _, name := range []string{"live_p50_us", "live_p99_us", "live_max_rate_ok_rps"} {
		res.Metrics[name] = e2e.Metrics[name]
	}

	top := run.steps[2]
	stages := []struct {
		name string
		f    func(cs *connStep, i int) int64
	}{
		{"gen_lag", genLag},
		{"wire_in", func(cs *connStep, i int) int64 { return cs.recv[i] - cs.sent[i] }},
		{"queue_decide", func(cs *connStep, i int) int64 { return cs.start[i] - cs.recv[i] }},
		{"exec", func(cs *connStep, i int) int64 { return cs.end[i] - cs.start[i] }},
		{"wire_out", func(cs *connStep, i int) int64 { return cs.arrive[i] - cs.end[i] }},
	}
	p50 := map[string]float64{}
	for _, sg := range stages {
		d := top.stage(sg.f)
		p50[sg.name] = median(d)
		res.set("live."+sg.name+"_p50_us", p50[sg.name])
		if sg.name != "exec" {
			res.set("live."+sg.name+"_p99_us", median(top.segmentP99(sg.f)))
		}
	}
	res.set("live.server_residence_p50_us", median(top.stage(func(cs *connStep, i int) int64 { return cs.end[i] - cs.recv[i] })))
	res.set("live.p999_us", quantile(top.lat, 0.999))
	res.set("live.gen_sent_ratio", top.sentRatio())
	res.set("live.gen_cpu_us_per_req", top.genCPU/float64(top.sent)*1e6)
	for i, tag := range []string{"r5k", "r15k"} {
		res.set("live."+tag+"_p50_us", median(run.steps[i].lat))
		res.set("live."+tag+"_p99_us", median(run.steps[i].segmentP99(latency)))
	}
	first, last := top.marks[0], top.marks[top.segs]
	answered := float64(top.answered)
	res.set("live.decisions_per_req", float64(last.Decisions-first.Decisions)/answered)
	res.set("live.dvfs_writes_per_req", float64(last.Writes-first.Writes)/answered)
	if e.selected {
		res.setGoMetrics(first.Go, last.Go, top.answered)
		res.set("trace_overhead_frac", median(plain.closed.rates)/median(run.closed.rates)-1)
	}

	// Spans for one request in 1024: the five stages under one request span.
	if e.tr != nil {
		for c, cs := range top.conns {
			for i := 0; i < len(cs.due); i += 1024 {
				if cs.arrive[i] <= 0 {
					continue
				}
				req := uint64(c)<<32 | uint64(i) + 1
				at := func(ns int64) time.Time { return time.Unix(0, ns) }
				parent := e.tr.record("live", "request", req, 0, at(cs.due[i]), at(cs.arrive[i]))
				bounds := []int64{cs.due[i], cs.sent[i], cs.recv[i], cs.start[i], cs.end[i], cs.arrive[i]}
				for k, sg := range stages {
					e.tr.record("live", sg.name, req, parent, at(bounds[k]), at(bounds[k+1]))
				}
			}
		}
	}

	// Budget at the 30k step, in microseconds of latency rather than CPU:
	// the stage medians next to the end-to-end median.
	res.E2ENsPerReq = median(top.lat) * 1e3
	for _, sg := range stages {
		res.Budget = append(res.Budget, budgetRow{"live." + sg.name, p50[sg.name] * 1e3, "median over the 30k step, from Response stamps and client clocks"})
	}
	return nil
}
