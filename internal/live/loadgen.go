// Open-loop load generation: the one wire client. RunLoad sends a
// pre-drawn schedule — a recorded v2 trace, a cohort spec's stream drawn
// with workload.RecordTrace, or a single-app Poisson load drawn with
// PoissonTrace — at each record's absolute arrival offset, whatever is
// still outstanding (the server's per-connection response path makes
// pipelining possible). Latency runs from the scheduled instant, so
// queueing the server causes is in the numbers instead of throttling the
// offered rate (coordinated omission), and two runs of one trace offer
// the same request sequence at the same instants, up to the scheduler
// jitter the clock owns. Latency is attributed per SLO class from the
// trace's class table.
package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"retail/internal/fault"
	"retail/internal/sim"
	"retail/internal/stats"
	"retail/internal/workload"
)

// LoadConfig drives RunLoad.
type LoadConfig struct {
	Addr string
	// Trace supplies the schedule: arrivals, features and SLO classes.
	// Build one with PoissonTrace, workload.RecordTrace (from a spec) or
	// workload.ReadTraceFile (a recording).
	Trace *workload.Trace
	// Conns splits the stream round-robin by record index (default 8);
	// each connection keeps its subset's time order.
	Conns int
	// DrainTimeout bounds the wait for outstanding answers after the last
	// scheduled send (0 = 2s).
	DrainTimeout time.Duration
	// MaxRetries bounds how often a shed (Dropped) record is re-sent before
	// it counts as Dropped; 0 disables retries.
	MaxRetries int
	// RetryBackoff is the first retry delay (0 = 2ms). It doubles per
	// attempt, with ±50% jitter so synchronized clients do not re-arrive
	// in lockstep.
	RetryBackoff time.Duration
}

// ClassLoadStats is one SLO class's client-observed share of a run.
type ClassLoadStats struct {
	Class     string
	Scale     float64 // the class's QoS′ multiplier from the trace header
	Completed int
	Dropped   int
	Latency   stats.HDR
}

// LoadResult aggregates one run. Every record ends in exactly one of
// Completed, Dropped and Unanswered.
type LoadResult struct {
	Sent       int // records whose first attempt was written
	Completed  int
	Dropped    int // shed or deadline-dropped on the last attempt
	Retries    int // re-sends after a shed response
	Unanswered int // never sent, or no final answer within the drain
	// Elapsed is the send-phase wall time (the slowest connection's).
	Elapsed time.Duration
	// OfferedRPS is the schedule's rate; SentRPS what the generator
	// achieved (they diverge only when the generator itself cannot keep
	// schedule, not when the server is slow).
	OfferedRPS float64
	SentRPS    float64
	// Latency holds client-observed sojourn (final answer − scheduled
	// send) in nanoseconds for completed records only, so a retried
	// record's sample covers its first send.
	Latency stats.HDR
	// Classes follows the trace header's class table order; empty when
	// the trace carries no class table.
	Classes []ClassLoadStats
}

// Quantile returns the q-quantile of completed records' latency.
func (r *LoadResult) Quantile(q float64) time.Duration {
	return time.Duration(r.Latency.Quantile(q))
}

// Report formats the run, one HDR line overall plus one per SLO class.
func (r *LoadResult) Report() string {
	out := fmt.Sprintf(`sent        %d in %v (offered %.0f RPS, achieved %.0f RPS)
completed   %d   dropped %d   retries %d   unanswered %d
latency     min %v  p50 %v  p90 %v  p99 %v  p99.9 %v  p99.99 %v  max %v`,
		r.Sent, r.Elapsed.Round(time.Millisecond), r.OfferedRPS, r.SentRPS,
		r.Completed, r.Dropped, r.Retries, r.Unanswered,
		time.Duration(r.Latency.Min()), r.Quantile(0.50), r.Quantile(0.90), r.Quantile(0.99),
		r.Quantile(0.999), r.Quantile(0.9999), time.Duration(r.Latency.Max()))
	for i := range r.Classes {
		c := &r.Classes[i]
		out += fmt.Sprintf("\nclass %-12s scale %.2f  completed %d  dropped %d  p50 %v  p99 %v  max %v",
			c.Class, c.Scale, c.Completed, c.Dropped, time.Duration(c.Latency.Quantile(0.50)),
			time.Duration(c.Latency.Quantile(0.99)), time.Duration(c.Latency.Max()))
	}
	return out
}

// PoissonTrace draws a single-app Poisson schedule of rps requests per
// second over window with the simulator's own generator, so both
// runtimes offer one arrival process. A fault plan's burst, when it has
// one, multiplies the rate between its From and Until offsets (wall
// seconds into the window, so pass a time-compressed plan already
// Scaled), exactly as the simulator's chaos runner applies it. The plan
// may be nil.
func PoissonTrace(app workload.App, rps float64, window time.Duration, seed int64, plan *fault.Plan) *workload.Trace {
	e := sim.NewEngine()
	tr := workload.NewTrace(nil, seed)
	gen := workload.NewGenerator(app, rps, seed, tr.RecordSink(nil))
	gen.Start(e)
	if plan != nil && plan.Burst != nil && plan.Burst.Factor > 0 {
		b := plan.Burst
		e.At(sim.Time(b.From), "live.burst", func(*sim.Engine) { gen.SetRPS(rps * b.Factor) })
		e.At(sim.Time(b.Until), "live.burst-end", func(*sim.Engine) { gen.SetRPS(rps) })
	}
	e.Run(sim.Time(window.Seconds()))
	gen.Stop()
	return tr
}

// RunLoad executes one trace-paced run and blocks until the send window
// plus drain completes. A connection the server drops mid-run stops
// sending; its unsent and unanswered records count as Unanswered.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	tr := cfg.Trace
	if tr == nil || len(tr.Records) == 0 {
		return nil, fmt.Errorf("live: LoadConfig needs a non-empty Trace")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("live: LoadConfig.MaxRetries %d is negative", cfg.MaxRetries)
	}
	n := len(tr.Records)
	conns := cfg.Conns
	if conns <= 0 {
		conns = 8
	}
	conns = min(conns, n)
	drain := cfg.DrainTimeout
	if drain <= 0 {
		drain = 2 * time.Second
	}
	backoff := cfg.RetryBackoff
	if backoff <= 0 {
		backoff = 2 * time.Millisecond
	}

	// Each record is settled by its own connection's receiver (record i
	// rides connection i mod conns), so these slices need no lock.
	outcome := make([]int64, n)
	for i := range outcome {
		outcome[i] = unanswered
	}
	attempts := make([]int32, n)
	cs := make([]*loadConn, conns)
	for i := range cs {
		conn, err := net.Dial("tcp", cfg.Addr)
		if err != nil {
			for _, open := range cs[:i] {
				open.conn.Close()
			}
			return nil, fmt.Errorf("live: dial: %w", err)
		}
		w := bufio.NewWriterSize(conn, 16<<10)
		cs[i] = &loadConn{
			conn: conn, w: w, enc: json.NewEncoder(w), tr: tr, first: i, stride: conns,
			outcome: outcome, attempts: attempts, maxRetries: int32(cfg.MaxRetries), backoff: backoff,
			jitter:   rand.New(rand.NewSource(tr.Header.Seed*31 + int64(i))),
			recvDone: make(chan struct{}),
		}
		if cfg.MaxRetries > 0 {
			// A peer that answers each send once leaves at most one
			// retry per record queued, so this never fills.
			cs[i].retryCh = make(chan retryAt, (n-i+conns-1)/conns)
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range cs {
		c.start = start
		wg.Add(1)
		go func(c *loadConn) {
			defer wg.Done()
			go c.receive()
			c.send(drain)
		}(c)
	}
	wg.Wait()

	res := &LoadResult{}
	if span := float64(tr.Records[n-1].Arrival); span > 0 {
		res.OfferedRPS = float64(n) / span
	}
	for _, c := range cs {
		res.Sent += c.sent
		res.Retries += c.retries
		res.Elapsed = max(res.Elapsed, c.sendDur)
	}
	if res.Elapsed > 0 {
		res.SentRPS = float64(res.Sent) / res.Elapsed.Seconds()
	}
	// One tally per class plus a spare for records outside the table.
	tally := make([]ClassLoadStats, len(tr.Header.Classes)+1)
	for k, name := range tr.Header.Classes {
		tally[k] = ClassLoadStats{Class: name, Scale: 1}
		if k < len(tr.Header.Scales) {
			tally[k].Scale = tr.Header.Scales[k]
		}
	}
	for i, v := range outcome {
		cls := &tally[min(int(tr.Records[i].Class), len(tally)-1)]
		switch {
		case v == dropped:
			res.Dropped++
			cls.Dropped++
		case v >= 0:
			res.Completed++
			res.Latency.Record(v)
			cls.Completed++
			cls.Latency.Record(v)
		}
	}
	res.Unanswered = n - res.Completed - res.Dropped
	res.Classes = tally[:len(tally)-1]
	return res, nil
}

// A record's outcome is its sojourn in nanoseconds once completed, or one
// of these.
const (
	unanswered int64 = -2
	dropped    int64 = -1
)

// loadConn drives one connection through its round-robin slice of the
// trace (records first, first+stride, …): a sender pacing the schedule
// and re-sending shed records, and a receiver settling each answer.
// Request ID is 1 + record index, so attributing an answer is a table
// read. The retry channel and the two atomics are all the sides share
// mid-run; each tally is read after both have joined.
type loadConn struct {
	conn          net.Conn
	w             *bufio.Writer
	enc           *json.Encoder
	tr            *workload.Trace
	start         time.Time
	first, stride int
	outcome       []int64
	attempts      []int32 // re-sends so far, per record
	maxRetries    int32
	backoff       time.Duration
	jitter        *rand.Rand // the receiver's

	retryCh             chan retryAt // receiver → sender
	finalSent, answered atomic.Int64
	recvDone            chan struct{}

	// The sender's own.
	req           Request
	timer         *time.Timer
	pending       []retryAt
	sent, retries int
	sendDur       time.Duration
}

type retryAt struct {
	rec int
	at  time.Time
}

// send is the connection's sender. It returns once every sent record has
// its final answer, the drain deadline passes, a write fails or the
// receiver has gone; the teardown then closes the connection and joins
// the receiver, so nothing outlives RunLoad.
func (c *loadConn) send(drain time.Duration) {
	c.timer = time.NewTimer(time.Hour)
	defer func() {
		c.timer.Stop()
		c.conn.Close()
		<-c.recvDone
	}()
	recs := c.tr.Records
	for i := c.first; i < len(recs); i += c.stride {
		target := c.start.Add(time.Duration(recs[i].ArrivalNs()))
		if !c.waitUntil(target) || !c.write(i, target) {
			return
		}
		c.sent++
	}
	c.sendDur = time.Since(c.start)
	// Drain: keep re-sending until the receiver has settled every sent
	// record (and exits) or the read deadline cuts it off; waitUntil
	// flushes the last requests before it sleeps.
	c.finalSent.Store(int64(c.sent))
	if c.answered.Load() >= int64(c.sent) {
		return
	}
	deadline := time.Now().Add(drain)
	c.conn.SetReadDeadline(deadline)
	c.waitUntil(deadline)
}

// waitUntil re-sends due retries until target, flushing buffered requests
// before it sleeps so nothing lingers client-side; batching then happens
// only while catching up, where throughput is what matters. It reports
// false when the connection is finished: a write failed or the receiver
// has gone.
func (c *loadConn) waitUntil(target time.Time) bool {
	for {
		next, ok := c.resend()
		if !ok {
			return false
		}
		d := time.Until(target)
		if d <= 0 {
			return true
		}
		if !next.IsZero() {
			d = min(d, time.Until(next))
		}
		if c.w.Flush() != nil {
			return false
		}
		// A stale tick from an earlier Reset only costs one extra pass.
		c.timer.Reset(d)
		select {
		case <-c.timer.C:
		case r := <-c.retryCh:
			c.pending = append(c.pending, r)
		case <-c.recvDone:
			return false
		}
	}
}

// resend writes every retry whose backoff has expired, restamped as a
// fresh send, and returns when the earliest remaining one is due (zero
// when none is).
func (c *loadConn) resend() (next time.Time, ok bool) {
	for len(c.retryCh) > 0 {
		c.pending = append(c.pending, <-c.retryCh)
	}
	if len(c.pending) == 0 {
		return time.Time{}, true
	}
	now := time.Now()
	keep := c.pending[:0]
	for _, r := range c.pending {
		if r.at.After(now) {
			keep = append(keep, r)
			if next.IsZero() || r.at.Before(next) {
				next = r.at
			}
		} else if c.write(r.rec, now) {
			c.retries++
		} else {
			return next, false
		}
	}
	c.pending = keep
	return next, true
}

func (c *loadConn) write(i int, gen time.Time) bool {
	rec := &c.tr.Records[i]
	c.req = Request{ID: uint64(i) + 1, GenNs: gen.UnixNano(), Features: rec.Features, Class: rec.Class}
	return c.enc.Encode(&c.req) == nil
}

// receive settles answers until the connection ends or, once the sender
// has finished, every sent record is settled. It never sleeps: a shed
// record with attempts left goes back to the sender with its backoff.
func (c *loadConn) receive() {
	defer close(c.recvDone)
	dec := json.NewDecoder(c.conn)
	recs := c.tr.Records
	for {
		var resp Response
		if dec.Decode(&resp) != nil {
			return // deadline, close, or peer gone ends the drain
		}
		i := int(resp.ID - 1)
		if resp.ID == 0 || resp.ID > uint64(len(recs)) || i%c.stride != c.first || c.outcome[i] != unanswered {
			continue // not one of this connection's outstanding records
		}
		if resp.Dropped && c.attempts[i] < c.maxRetries {
			c.attempts[i]++
			backoff := float64(c.backoff<<(c.attempts[i]-1)) * (0.5 + c.jitter.Float64())
			select {
			case c.retryCh <- retryAt{rec: i, at: time.Now().Add(time.Duration(backoff))}:
				continue
			default: // full only if the peer answers one request twice; settle it
			}
		}
		if resp.Dropped {
			c.outcome[i] = dropped
		} else {
			c.outcome[i] = max(int64(time.Since(c.start))-recs[i].ArrivalNs(), 0)
		}
		if n, fs := c.answered.Add(1), c.finalSent.Load(); fs > 0 && n >= fs {
			return
		}
	}
}
