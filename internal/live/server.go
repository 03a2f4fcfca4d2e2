package live

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"retail/internal/cpu"
	"retail/internal/fault"
	"retail/internal/policy"
	"retail/internal/predict"
	"retail/internal/telemetry"
	"retail/internal/workload"
)

// Request is the wire format: the client's generation timestamp (t1 in
// the paper's training-dataset terms) travels in the packet, and feature
// values are labeled positionally against the server's feature specs.
type Request struct {
	ID       uint64    `json:"id"`
	GenNs    int64     `json:"gen_ns"`
	Features []float64 `json:"features"`
	// Class is the request's SLO-class index in the server's configured
	// class table (ServerConfig.Classes); absent/0 means the single-class
	// behavior, so pre-class clients interoperate unchanged.
	Class uint8 `json:"class,omitempty"`
}

// Response returns the server-side timestamps so the client can compute
// sojourn and service time. Dropped marks a request refused by admission
// control or timed out in the queue — it never executed, and the client's
// retry policy decides what happens next.
type Response struct {
	ID      uint64 `json:"id"`
	GenNs   int64  `json:"gen_ns,omitempty"` // echo of the request's generation stamp
	RecvNs  int64  `json:"recv_ns"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Level   int    `json:"level"`
	Dropped bool   `json:"dropped,omitempty"`
}

// Executor performs the actual request work at the backend's current
// frequency level and returns when done. The demo executor sleeps for the
// request's modeled service time scaled to the mocked frequency; a real
// integration would call into the application here.
type Executor func(r Request, lvl cpu.Level)

// ServerConfig wires the live runtime.
type ServerConfig struct {
	Addr      string // listen address, e.g. "127.0.0.1:0"
	Workers   int
	QoS       workload.QoS
	Predictor predict.Predictor
	Backend   Backend
	Exec      Executor
	// Policy selects the frequency manager: "retail" (default), "rubik",
	// "gemini" or "eetl" — the same policy set the simulator evaluates,
	// all running on the shared clock-agnostic core in internal/policy.
	Policy string
	// ProfileAtMax is the offline service-time profile at max frequency
	// (seconds), required by the profile-driven baselines (rubik, eetl).
	ProfileAtMax []float64
	// Metrics, when non-nil, receives the runtime's telemetry
	// (wall-clock request histograms, queue depth, QoS′, frequency
	// residency) under the telemetry.Metric* schema. Serve the
	// registry's Handler to expose /metrics and /healthz.
	Metrics *telemetry.Registry
	// AppName labels the metrics (default "live").
	AppName string
	// Faults, when non-nil, is the chaos injector: the server consults
	// SiteExec before running each request (latency spikes/stalls). DVFS
	// faults arrive through the Backend (wrap it with NewFaultyBackend
	// sharing the same injector). Nil costs the hot path one branch.
	//
	// A non-nil injector also turns off the DVFS write coalescer: every
	// decision drives the backend even when the runtime believes the
	// hardware already holds the level. A DVFS fault plan must see real
	// write traffic to inject into, and a flaky-hardware scenario is
	// exactly where "believes" stops being trustworthy. Without one the
	// runtime coalesces: failures clear the known-level state, so real
	// faults re-enable real writes anyway.
	Faults *fault.Injector
	// Params is the runtime's one tunable surface (policy.Params): the
	// monitor constants and period (Monitor.Interval, default 100 ms),
	// Algorithm 1's HeadOnly ablation, baseline postures, the degradation
	// budgets (shedding, deadline drops, DVFS retry count and backoff)
	// and the per-SLO-class QoS′ multipliers indexed by Request.Class (a
	// cohort spec's class table, workload.Spec.Classes — empty keeps the
	// single-class behavior). The zero value reproduces the runtime's
	// historical constants; a `-params file.json` flag feeds it from disk.
	Params policy.Params
}

// connIO is one connection's response plumbing: resp is an MPSC channel
// — any worker (and the shed/deadline paths) produces into it, the
// connection's single writer goroutine consumes — and gone is closed
// when the connection tears down so producers never block on a dead
// peer. Decoupling responses from the read loop lets a client pipeline
// requests on one connection, which is what an open-loop load generator
// needs to reach saturation.
type connIO struct {
	resp chan Response
	gone chan struct{}
}

type queuedReq struct {
	req  Request
	recv time.Time
	out  *connIO
}

// Server is the wall-clock adapter of the shared decision core: one
// goroutine per worker core draining a FCFS queue, a frequency decision
// per schedule through the configured policy (Algorithm 1 for ReTail),
// and a monitor goroutine ticking the policy's periodic work. The
// decision arithmetic itself lives in internal/policy — the same code
// the simulator adapter (internal/manager) runs in virtual time; the
// replay-parity harness in internal/experiments asserts the two adapters
// decide byte-identically on one recorded trace.
type Server struct {
	cfg  ServerConfig
	ln   net.Listener
	grid *cpu.Grid

	// epochNs anchors the runtime's float64-seconds timebase: every time
	// the decision core sees is (wallNs − epochNs)/1e9, mirroring the
	// simulator's seconds-since-zero virtual clock.
	epochNs int64

	mu     sync.Mutex
	queues [][]*queuedReq
	closed bool
	conns  map[net.Conn]struct{}

	// dec is the frequency policy policy.New built; pipe is the persistent
	// pipeline view handed to it so the decide path allocates nothing
	// (TestLiveDecideZeroAlloc). boost is dec's optional two-step DVFS
	// surface (nil when the policy has none). All guarded by mu.
	dec   policy.Policy
	pipe  livePipeline
	boost policy.Booster

	// jsq is the shared dispatch rule; jsqLoad is a persistent closure so
	// enqueue allocates nothing for the pick.
	jsq     policy.JSQ
	jsqLoad func(int) int

	// degrade holds the shared shed/deadline predicates from
	// Params.Degrade; classes the per-SLO-class QoS′ multipliers.
	degrade policy.Degrade
	classes policy.ClassTargets

	wake []chan struct{}
	wg   sync.WaitGroup
	stop chan struct{}

	decisions uint64
	metrics   *liveMetrics // nil when cfg.Metrics is nil

	// reqPool recycles queuedReq nodes (and their Features backing)
	// between requests: the connection reader decodes into a pooled node,
	// and whichever path answers the request — completion, shed, deadline
	// drop — returns it via respond. At 100k+ RPS this keeps the ingress
	// path off the allocator.
	reqPool sync.Pool

	// tick is the monitor period.
	tick time.Duration

	// Graceful degradation (see degrade.go): the DVFS retry budget,
	// write-through (cfg.Faults != nil), recovery counters, and the
	// per-worker believed-hardware-level table.
	retries      int
	retryBackoff time.Duration
	writeThrough bool
	deg          degradeState
	applied      []appliedState

	// Flight ring for /debug/trace (guarded by mu; see debug.go). spanCap
	// is traceCap; in-package tests shrink it, or zero it to disable
	// recording.
	spans    []LiveSpan
	spanHead int
	spanFull bool
	spanCap  int
}

// livePipeline adapts one worker's head + FCFS queue snapshot to
// policy.Pipeline. The queue slice references the server's own queue
// (decide runs under s.mu), so refilling it per decision allocates
// nothing.
type livePipeline struct {
	s     *Server
	head  *queuedReq
	queue []*queuedReq
}

func (p *livePipeline) req(i int) *queuedReq {
	if i == 0 {
		return p.head
	}
	return p.queue[i-1]
}

func (p *livePipeline) Len() int { return 1 + len(p.queue) }

func (p *livePipeline) Gen(i int) policy.Time { return p.s.toS(p.req(i).req.GenNs) }

func (p *livePipeline) Predict(lvl cpu.Level, i int) float64 {
	return p.s.cfg.Predictor.Predict(lvl, p.req(i).req.Features)
}

// HeadProgress is always zero live: run-to-completion workers decide at
// schedule time, and the wall-clock runtime has no mid-request progress
// counter (the real system would read hardware cycle counters here).
func (p *livePipeline) HeadProgress() float64 { return 0 }

// Class implements policy.ClassedPipeline: the wire request carries its
// SLO-class index.
func (p *livePipeline) Class(i int) uint8 { return p.req(i).req.Class }

// toS converts a wall-clock UnixNano stamp to the runtime's
// float64-seconds timebase.
func (s *Server) toS(ns int64) float64 { return float64(ns-s.epochNs) / 1e9 }

// nowS returns the current time in the runtime's timebase.
func (s *Server) nowS() float64 { return s.toS(time.Now().UnixNano()) }

// durS converts the policy core's float64 seconds back to a Duration,
// rounding rather than truncating: the QoS′ floor 0.02·target computes
// to …999999ns in binary floating point, and truncation would report it
// 1 ns below the clamp band the monitor actually enforces.
func durS(x float64) time.Duration { return time.Duration(math.Round(x * 1e9)) }

// NewServer validates the configuration and binds the listener.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Workers <= 0 || cfg.Predictor == nil || cfg.Backend == nil || cfg.Exec == nil {
		return nil, errors.New("live: config needs Workers, Predictor, Backend and Exec")
	}
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	tick := 100 * time.Millisecond
	if iv := cfg.Params.Monitor.Interval; iv != 0 {
		// A tuned interval moves the monitor goroutine's tick period, not
		// just the rate-limit floor inside the monitor.
		tick = durS(iv)
	}
	grid := cfg.Backend.Grid()
	dec, err := policy.New(cfg.Policy, cfg.Params, policy.Env{
		QoS:          float64(cfg.QoS.Latency),
		Percentile:   cfg.QoS.Percentile,
		Grid:         grid,
		ProfileAtMax: cfg.ProfileAtMax,
		Tick:         tick.Seconds(),
		Posture:      policy.LivePosture,
	})
	if err != nil {
		return nil, fmt.Errorf("live: %w", err)
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		ln:      ln,
		grid:    grid,
		epochNs: time.Now().UnixNano(),
		queues:  make([][]*queuedReq, cfg.Workers),
		dec:     dec,
		stop:    make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
		tick:    tick,
		applied: make([]appliedState, cfg.Workers),
		spanCap: traceCap,
	}
	s.pipe.s = s
	s.boost, _ = dec.(policy.Booster)
	s.jsqLoad = func(i int) int { return len(s.queues[i]) }
	s.retries, s.retryBackoff = dvfsRetries(cfg.Params.Degrade)
	s.writeThrough = cfg.Faults != nil
	s.degrade = policy.Degrade{
		ShedFactor:     cfg.Params.Degrade.ShedFactor,
		DeadlineFactor: cfg.Params.Degrade.DeadlineFactor,
	}
	s.classes = cfg.Params.ClassTargets()
	for i := 0; i < cfg.Workers; i++ {
		s.wake = append(s.wake, make(chan struct{}, 1))
	}
	if cfg.Metrics != nil {
		app := cfg.AppName
		if app == "" {
			app = "live"
		}
		s.metrics = newLiveMetrics(cfg.Metrics, app, s.grid, float64(cfg.QoS.Latency))
		s.metrics.setQoSPrime(durS(s.dec.QoSPrime()))
	}
	return s, nil
}

// Policy returns the active frequency policy's name.
func (s *Server) Policy() string { return s.dec.Name() }

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Start launches the worker, acceptor and monitor goroutines.
func (s *Server) Start() {
	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.monitor()
}

// Close shuts the server down and waits for goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.stop)
	err := s.ln.Close()
	// Unblock connection readers so their goroutines can drain.
	for _, c := range conns {
		c.Close()
	}
	for _, w := range s.wake {
		select {
		case w <- struct{}{}:
		default:
		}
	}
	s.wg.Wait()
	return err
}

// Decisions returns the number of Algorithm 1 invocations.
func (s *Server) Decisions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.decisions
}

// QoSPrime returns the current internal latency target.
func (s *Server) QoSPrime() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return durS(s.dec.QoSPrime())
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	// Label the ingress path so CPU profiles separate wire decode/encode
	// from decision work (select retail=ingress in /debug/pprof samples).
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("retail", "ingress")))
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	cio := &connIO{resp: make(chan Response, respQueue), gone: make(chan struct{})}
	// Writer: the sole consumer of this connection's response channel.
	// Running it apart from the read loop means the server accepts the
	// next pipelined request while earlier ones are still executing;
	// responses carry IDs, so pipelining clients correlate them.
	var wwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		if err := writeResponses(conn, cio.resp, cio.gone, s.stop); err != nil {
			conn.Close() // unblock the reader; gone stops producers
		}
	}()
	// Tear-down order matters: close gone first (releases the writer and
	// any producer blocked on a full resp channel), then join the writer.
	defer func() { close(cio.gone); wwg.Wait() }()
	rr := newRequestReader(conn)
	for {
		q, _ := s.reqPool.Get().(*queuedReq)
		if q == nil {
			q = &queuedReq{}
		}
		if err := rr.next(&q.req); err != nil {
			s.reqPool.Put(q)
			return
		}
		q.recv, q.out = time.Now(), cio
		s.enqueue(q)
	}
}

const (
	// respQueue is the depth of a connection's response channel: how far
	// the workers may run ahead of a peer that is slow to read before
	// they block on it (or on gone).
	respQueue = 64
	// respFlushBytes bounds what the writer gathers into one write.
	respFlushBytes = 16 << 10
)

// writeResponses is a connection's writer loop: it encodes every response
// that is already queued into one buffer and writes the buffer when resp
// runs empty or the buffer reaches respFlushBytes. Nothing waits on a
// timer — a lone response is written at once, and gathering happens only
// while the workers are ahead of the socket, which is when one write(2)
// per response costs the most. Responses leave in channel order. It
// returns w's error, or nil once gone or stop closes.
func writeResponses(w io.Writer, resp <-chan Response, gone, stop <-chan struct{}) error {
	var buf []byte
	for {
		select {
		case r := <-resp:
			buf = appendResponse(buf[:0], &r)
		gather:
			for len(buf) < respFlushBytes {
				select {
				case r = <-resp:
					buf = appendResponse(buf, &r)
				default:
					break gather
				}
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		case <-gone:
			return nil
		case <-stop:
			return nil
		}
	}
}

// respond hands the response to the request's connection writer (the
// single consumer of the connIO MPSC channel) and recycles the request
// node. A torn-down connection or a stopping server drops the response
// instead of blocking the worker.
func (s *Server) respond(q *queuedReq, r Response) {
	out := q.out
	q.out = nil
	select {
	case out.resp <- r:
	case <-out.gone:
	case <-s.stop:
	}
	s.reqPool.Put(q)
}

// enqueue joins the shortest queue via the shared policy.JSQ rule (same
// rotating tie-break as the simulator's server — the PR-2 tie-bias fix,
// now on both sides). With admission control enabled it sheds the
// arrival instead when even the shortest queue's drain estimate —
// (depth+1) requests at the request's predicted max-frequency service
// time — exceeds ShedFactor × QoS′ (policy.Degrade.ShouldShed):
// accepting a request that provably cannot meet the deadline only wastes
// energy and delays requests that still can.
func (s *Server) enqueue(q *queuedReq) {
	var svcAtMax float64
	if s.degrade.ShedFactor > 0 {
		svcAtMax = s.cfg.Predictor.Predict(s.grid.MaxLevel(), q.req.Features)
	}
	s.mu.Lock()
	best := s.jsq.Pick(len(s.queues), s.jsqLoad)
	// The arriving request's SLO class scales the shed budget: a batch
	// request is held to its relaxed target, an interactive one to its
	// tightened target (identity when no classes are configured).
	if s.degrade.ShouldShed(len(s.queues[best]), svcAtMax, s.classes.Apply(q.req.Class, s.dec.QoSPrime())) {
		s.mu.Unlock()
		s.deg.shed.Add(1)
		s.metrics.incShed()
		s.respond(q, Response{ID: q.req.ID, GenNs: q.req.GenNs, RecvNs: q.recv.UnixNano(), Dropped: true})
		return
	}
	s.queues[best] = append(s.queues[best], q)
	depth := s.queuedLocked()
	s.mu.Unlock()
	s.metrics.setQueueDepth(depth)
	select {
	case s.wake[best] <- struct{}{}:
	default:
	}
}

// queuedLocked sums waiting requests; callers hold s.mu.
func (s *Server) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

func (s *Server) worker(id int) {
	defer s.wg.Done()
	// Label the decide hot path — queue pop, Algorithm 1, DVFS write,
	// execution — per worker, the counterpart of the ingress label above.
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels("retail", "decide", "worker", strconv.Itoa(id))))
	for {
		s.mu.Lock()
		var q *queuedReq
		if len(s.queues[id]) > 0 {
			q = s.queues[id][0]
			s.queues[id] = s.queues[id][1:]
		}
		depth := s.queuedLocked()
		s.mu.Unlock()
		if q != nil {
			s.metrics.setQueueDepth(depth)
		}
		if q == nil {
			select {
			case <-s.wake[id]:
				continue
			case <-s.stop:
				return
			}
		}
		// Deadline timeout: a request whose queueing delay alone already
		// blew the budget is dropped before the (pointless) execution
		// (policy.Degrade.DeadlineExceeded — the shared predicate).
		if s.degrade.DeadlineExceeded(time.Since(q.recv).Seconds(), float64(s.cfg.QoS.Latency)) {
			s.deg.deadline.Add(1)
			s.metrics.incDeadlineDrop()
			s.respond(q, Response{ID: q.req.ID, GenNs: q.req.GenNs, RecvNs: q.recv.UnixNano(), Dropped: true})
			continue
		}
		lvl, predicted, qlen, qp := s.decide(id, q)
		// Drive the hardware with bounded retry; on exhaustion applyLevel
		// pins the worker at max frequency (see degrade.go). The executor
		// runs at the level the hardware actually holds, not the wish.
		applied := s.applyLevel(id, lvl)
		// Two-step DVFS (Gemini's boost checkpoint, EETL's long-request
		// threshold): arm a timer that re-raises the frequency if the
		// request is still running when it fires.
		var boostTimer *time.Timer
		if delay, blvl, on := s.boostFor(lvl, predicted); on {
			wid := id
			boostTimer = time.AfterFunc(delay, func() { s.applyLevel(wid, blvl) })
		}
		start := time.Now()
		if f, ok := s.cfg.Faults.Fire(fault.SiteExec); ok {
			// Injected executor latency spike/stall, part of the measured
			// service time — exactly how a real slow execution would look.
			time.Sleep(time.Duration(f.Magnitude * float64(time.Second)))
		}
		s.cfg.Exec(q.req, applied)
		end := time.Now()
		if boostTimer != nil {
			boostTimer.Stop()
		}
		sojourn := end.Sub(time.Unix(0, q.req.GenNs))
		s.metrics.observeCompletion(sojourn, end.Sub(start), applied)
		s.recordSpan(LiveSpan{
			ID: q.req.ID, Worker: id,
			RecvNs: q.recv.UnixNano(), StartNs: start.UnixNano(), EndNs: end.UnixNano(),
			Level: int(applied), QueueLen: qlen, QoSPrimeNs: qp.Nanoseconds(),
			PredictedS: predicted, ActualS: end.Sub(start).Seconds(),
			SojournS: sojourn.Seconds(),
			Violated: sojourn.Seconds() > float64(s.cfg.QoS.Latency),
		})
		s.mu.Lock()
		s.dec.Observe(s.toS(end.UnixNano()), sojourn.Seconds())
		s.mu.Unlock()
		s.respond(q, Response{
			ID:      q.req.ID,
			GenNs:   q.req.GenNs,
			RecvNs:  q.recv.UnixNano(),
			StartNs: start.UnixNano(),
			EndNs:   end.UnixNano(),
			Level:   int(applied),
		})
	}
}

// decide runs the configured policy over the worker's current pipeline.
// It returns the chosen level plus the attribution the flight ring
// records: the head's predicted service at that level, the queue
// occupancy and QoS′ at decision time. The pipeline view references the
// live queue under s.mu and the persistent pipe/policy state, so one
// decision allocates nothing (TestLiveDecideZeroAlloc) — the live twin
// of the simulator adapter's TestRetailDecideZeroAlloc.
func (s *Server) decide(id int, head *queuedReq) (cpu.Level, float64, int, time.Duration) {
	return s.decideAt(s.nowS(), id, head)
}

// decideAt is decide at an explicit time in the server's timebase, so a
// test can replay a decision stream without reading the wall clock.
func (s *Server) decideAt(now float64, id int, head *queuedReq) (cpu.Level, float64, int, time.Duration) {
	s.mu.Lock()
	s.pipe.head = head
	s.pipe.queue = s.queues[id]
	qlen := len(s.queues[id])
	lvl, predicted := s.dec.Decide(now, &s.pipe)
	qp := durS(s.dec.QoSPrime())
	s.pipe.head, s.pipe.queue = nil, nil
	s.decisions++
	s.mu.Unlock()
	s.metrics.incDecisions()
	return lvl, predicted, qlen, qp
}

// boostFor returns the policy's two-step DVFS checkpoint for a decision
// (Gemini's boost, EETL's long-request threshold): re-raise the worker to
// lvl after delay if its request is still running. ok is false when the
// policy arms nothing.
func (s *Server) boostFor(chosen cpu.Level, predicted float64) (delay time.Duration, lvl cpu.Level, ok bool) {
	if s.boost == nil {
		return 0, 0, false
	}
	d, lvl, ok := s.boost.Boost(chosen, predicted)
	return time.Duration(d * 1e9), lvl, ok
}

// monitor drives the policy's periodic work on a wall-clock ticker — the
// live binding of the same tick the simulator schedules as a virtual
// event chain. For ReTail the tick is policy.Monitor.Tick: the shared
// QoS′ controller with the age-pruned sample window, so one bad burst
// ages out and QoS′ recovers instead of ratcheting down permanently
// (TestLiveMonitorRecoversAfterBurst).
func (s *Server) monitor() {
	defer s.wg.Done()
	ticker := time.NewTicker(s.tick)
	defer ticker.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-ticker.C:
		}
		now := s.nowS()
		s.mu.Lock()
		s.dec.Tick(now)
		qp := durS(s.dec.QoSPrime())
		s.mu.Unlock()
		s.metrics.setQoSPrime(qp)
	}
}
