package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"retail/internal/live"
)

// The generator side of live-loopback: wire helpers, pacing, one open-loop
// step and the closed loop.

// ---------------------------------------------------------------------------
// Wire helpers: the generator writes requests and scans responses by
// hand so that its own JSON cost stays out of the server's numbers.

func nowNs() int64 { return time.Now().UnixNano() }

func appendRequest(b []byte, id uint64, genNs int64, feats []float64) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, `,"gen_ns":`...)
	b = strconv.AppendInt(b, genNs, 10)
	b = append(b, `,"features":[`...)
	for i, f := range feats {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, f, 'g', -1, 64)
	}
	return append(b, "]}\n"...)
}

type wireResponse struct {
	id               uint64
	recv, start, end int64
	dropped          bool
}

// parseResponse scans one flat JSON object of numbers and booleans, in
// any field order; anything else falls back to encoding/json.
func parseResponse(line []byte) (wireResponse, bool) {
	var r wireResponse
	i, n := 0, len(line)
	for i < n && line[i] != '{' {
		i++
	}
	i++
	for i < n {
		for i < n && line[i] != '"' {
			if line[i] == '}' {
				return r, true
			}
			i++
		}
		k0 := i + 1
		i = k0
		for i < n && line[i] != '"' {
			i++
		}
		if i+1 >= n || line[i+1] != ':' {
			break
		}
		key := line[k0:i]
		i += 2
		v0 := i
		for i < n && line[i] != ',' && line[i] != '}' {
			i++
		}
		val := line[v0:i]
		var num int64
		isNum := len(val) > 0
		for _, c := range val {
			if c < '0' || c > '9' {
				isNum = false
				break
			}
			num = num*10 + int64(c-'0')
		}
		switch string(key) {
		case "id":
			r.id = uint64(num)
		case "recv_ns":
			r.recv = num
		case "start_ns":
			r.start = num
		case "end_ns":
			r.end = num
		case "dropped":
			r.dropped, isNum = string(val) == "true", true
		default:
			isNum = true // gen_ns, level: not needed
		}
		if !isNum {
			break
		}
	}
	var full live.Response
	if err := json.Unmarshal(line, &full); err != nil {
		return r, false
	}
	return wireResponse{full.ID, full.RecvNs, full.StartNs, full.EndNs, full.Dropped}, true
}

// precisePacing gives the calling goroutine its own OS thread with a
// timer slack of 1 ns. Linux pads a normal thread's sleeps by 50 us of
// slack, which at 30k requests per second is most of an inter-send gap;
// without it nanosleep wakes within a few microseconds. The returned
// function undoes the thread lock.
func precisePacing() func() {
	const prSetTimerSlack = 29
	runtime.LockOSThread()
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return runtime.UnlockOSThread
}

// sleepUntil blocks until the wall clock reads due. time.Sleep rounds up
// to the runtime's timer granularity (about 1 ms here when idle) and a
// spin would take a core from the server; nanosleep does neither.
func sleepUntil(due int64) {
	if d := due - nowNs(); d > 0 {
		ts := syscall.NsecToTimespec(d)
		syscall.Nanosleep(&ts, nil)
	}
}

// ---------------------------------------------------------------------------
// One connection's record of an open-loop step.

type connStep struct {
	due     []int64 // scheduled send, unix ns
	sent    []int64 // actual send
	recv    []int64 // server stamps
	start   []int64
	end     []int64
	arrive  []int64 // response arrival; 0 = unanswered
	dropped int
	dup     int // answered more than once
	err     error
}

type stepResult struct {
	rate       float64
	t0, t1     int64 // step window, unix ns
	conns      []*connStep
	limitUs    float64      // the app's QoS latency: a step is "ok" with its p99 at or under it
	segs       int          // segments the step is cut into, 1..liveSegments
	marks      []serverMark // segs+1, at the segment boundaries
	markAt     []int64
	genCPU     float64 // this process's CPU over the step
	sent       int
	answered   int
	dropped    int
	unanswered int
	misordered int       // responses violating sent <= recv <= start <= end <= arrival
	lat        []float64 // us, answered requests, in schedule order per connection
	genBound   bool
}

// openStep offers `rate` requests per second for `dur` on fresh connections.
func openStep(addr string, srv *serverProc, feats [][]float64, rate float64, dur time.Duration, seed int64, limitUs float64) (*stepResult, error) {
	st := &stepResult{rate: rate, limitUs: limitUs}
	conns := make([]net.Conn, liveConns)
	for c := range conns {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			for _, o := range conns[:c] {
				o.Close()
			}
			return nil, err
		}
		conns[c] = conn
	}
	// Pre-draw each connection's Poisson schedule as offsets from t0.
	offsets := make([][]int64, liveConns)
	for c := range offsets {
		rng := rand.New(rand.NewSource(seed*131 + int64(c)))
		per := rate / liveConns
		for t := rng.ExpFloat64() / per; t < dur.Seconds(); t += rng.ExpFloat64() / per {
			offsets[c] = append(offsets[c], int64(t*1e9))
		}
	}
	for _, off := range offsets {
		st.segs += len(off)
	}
	if st.segs /= liveSegmentN; st.segs > liveSegments {
		st.segs = liveSegments
	} else if st.segs < 1 {
		st.segs = 1
	}
	// The generator's own garbage collector must not run into the step.
	runtime.GC()
	cpu0 := cpuSeconds()
	st.t0 = nowNs() + int64(20*time.Millisecond)
	st.t1 = st.t0 + int64(dur)

	var wg sync.WaitGroup
	for c := range conns {
		n := len(offsets[c])
		cs := &connStep{due: offsets[c], sent: make([]int64, n), recv: make([]int64, n),
			start: make([]int64, n), end: make([]int64, n), arrive: make([]int64, n)}
		for i := range cs.due {
			cs.due[i] += st.t0
		}
		st.conns = append(st.conns, cs)
		sendDone := make(chan struct{})
		wg.Add(2)
		go func(conn net.Conn, c int) { // sender
			defer wg.Done()
			defer close(sendDone)
			defer precisePacing()()
			bw := bufio.NewWriterSize(conn, 8<<10)
			var buf []byte
			for i, due := range cs.due {
				if due > nowNs() {
					// Ahead of schedule: nothing may linger client-side.
					if err := bw.Flush(); err != nil {
						cs.err = err
						return
					}
					sleepUntil(due)
				}
				cs.sent[i] = nowNs()
				buf = appendRequest(buf[:0], uint64(c)<<32|uint64(i), due, feats[i&(len(feats)-1)])
				if _, err := bw.Write(buf); err != nil {
					cs.err = err
					return
				}
			}
			cs.err = bw.Flush()
		}(conns[c], c)
		go func(conn net.Conn) { // receiver
			defer wg.Done()
			br := bufio.NewReaderSize(conn, 64<<10)
			answered := 0
			go func() { // once the sender is done, bound the wait for stragglers
				<-sendDone
				conn.SetReadDeadline(time.Now().Add(liveDrain))
			}()
			for answered < n {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return // deadline or peer gone: the rest stay unanswered
				}
				at := nowNs()
				r, ok := parseResponse(line)
				i := int(r.id & 0xffffffff)
				if !ok || i >= n {
					continue
				}
				if cs.arrive[i] != 0 {
					cs.dup++
					continue
				}
				answered++
				if r.dropped {
					cs.dropped++
					at = -1
				}
				cs.recv[i], cs.start[i], cs.end[i], cs.arrive[i] = r.recv, r.start, r.end, at
			}
		}(conns[c])
	}
	// Marks at the segment boundaries give the server's CPU per segment.
	for s := 0; s <= st.segs; s++ {
		sleepUntil(st.t0 + int64(dur)*int64(s)/int64(st.segs))
		m, err := srv.mark(s == 0 || s == st.segs)
		if err != nil {
			return nil, err
		}
		st.marks, st.markAt = append(st.marks, m), append(st.markAt, nowNs())
	}
	wg.Wait()
	for _, conn := range conns {
		conn.Close()
	}
	st.genCPU = cpuSeconds() - cpu0
	for _, cs := range st.conns {
		if cs.err != nil {
			return nil, fmt.Errorf("live: send: %w", cs.err)
		}
		st.sent += len(cs.due)
		st.dropped += cs.dropped
		for i, at := range cs.arrive {
			switch {
			case at == 0:
				st.unanswered++
			case at > 0:
				st.answered++
				st.lat = append(st.lat, float64(at-cs.due[i])/1e3)
				if !(cs.sent[i] <= cs.recv[i] && cs.recv[i] <= cs.start[i] && cs.start[i] <= cs.end[i] && cs.end[i] <= at) {
					st.misordered++
				}
			}
		}
		st.misordered += cs.dup
	}
	return st, nil
}

// stage returns one stage's durations (us) over the step's answered requests.
func (st *stepResult) stage(f func(cs *connStep, i int) int64) []float64 {
	out := make([]float64, 0, st.answered)
	for _, cs := range st.conns {
		for i, at := range cs.arrive {
			if at > 0 {
				out = append(out, float64(f(cs, i))/1e3)
			}
		}
	}
	return out
}

// latency and lag are the two stages the health rules read.
func latency(cs *connStep, i int) int64 { return cs.arrive[i] - cs.due[i] }
func genLag(cs *connStep, i int) int64  { return cs.sent[i] - cs.due[i] }

// segment returns one stage's durations (us) over the answered requests
// due in segment s.
func (st *stepResult) segment(s int, f func(cs *connStep, i int) int64) []float64 {
	lo := st.t0 + (st.t1-st.t0)*int64(s)/int64(st.segs)
	hi := st.t0 + (st.t1-st.t0)*int64(s+1)/int64(st.segs)
	var out []float64
	for _, cs := range st.conns {
		for i, at := range cs.arrive {
			if at > 0 && cs.due[i] >= lo && cs.due[i] < hi {
				out = append(out, float64(f(cs, i))/1e3)
			}
		}
	}
	return out
}

// segmentP99 returns a stage's p99 in each segment. A step's p99 is the
// median of these, so that one host hiccup cannot own the number.
func (st *stepResult) segmentP99(f func(cs *connStep, i int) int64) []float64 {
	out := make([]float64, st.segs)
	for s := range out {
		out[s] = quantile(st.segment(s, f), 0.99)
	}
	return out
}

// sentRatio is the offered window over the time the generator needed to
// send it: 1 when it kept schedule.
func (st *stepResult) sentRatio() float64 {
	last := st.t1
	for _, cs := range st.conns {
		if n := len(cs.sent); n > 0 && cs.sent[n-1] > last {
			last = cs.sent[n-1]
		}
	}
	return float64(st.t1-st.t0) / float64(last-st.t0)
}

// ok applies the live_max_rate_ok_rps rule to the step.
func (st *stepResult) ok() bool {
	if st.genBound || st.dropped > 0 || st.unanswered > 0 || st.answered == 0 {
		return false
	}
	if median(st.segmentP99(latency)) > st.limitUs {
		return false
	}
	first, last := median(st.segment(0, latency)), median(st.segment(st.segs-1, latency))
	return last <= 2*first // no growing backlog
}

// serverCPUPerReq returns, per segment, the server's CPU microseconds
// per request that arrived back in the segment.
func (st *stepResult) serverCPUPerReq() []float64 {
	var out []float64
	for s := 0; s < st.segs; s++ {
		n := 0
		for _, cs := range st.conns {
			for _, at := range cs.arrive {
				if at >= st.markAt[s] && at < st.markAt[s+1] {
					n++
				}
			}
		}
		if n > 0 {
			out = append(out, (st.marks[s+1].CPUS-st.marks[s].CPUS)/float64(n)*1e6)
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Closed loop.

type closedResult struct {
	rates     []float64 // completions per second, per segment
	completed int
	failed    int // dropped, or a connection error
}

const closedSegments = 10

// closedLoop keeps liveInflight requests in flight on each connection for
// dur: every response triggers the next request.
func closedLoop(addr string, feats [][]float64, dur time.Duration) (*closedResult, error) {
	res := &closedResult{}
	counts := make([][closedSegments]int, liveConns)
	fails := make([]int, liveConns)
	errs := make([]error, liveConns)
	runtime.GC()
	t0 := nowNs() + int64(10*time.Millisecond)
	deadline := t0 + int64(dur)
	var wg sync.WaitGroup
	for c := 0; c < liveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs[c] = err
				return
			}
			defer conn.Close()
			bw, br := bufio.NewWriterSize(conn, 8<<10), bufio.NewReaderSize(conn, 64<<10)
			var buf []byte
			seq, inflight := uint64(0), 0
			send := func() error {
				seq++
				buf = appendRequest(buf[:0], uint64(c)<<32|seq, nowNs(), feats[seq&uint64(len(feats)-1)])
				_, err := bw.Write(buf)
				inflight++
				return err
			}
			sleepUntil(t0)
			for i := 0; i < liveInflight; i++ {
				if errs[c] = send(); errs[c] != nil {
					return
				}
			}
			if errs[c] = bw.Flush(); errs[c] != nil {
				return
			}
			conn.SetReadDeadline(time.Unix(0, deadline).Add(liveDrain))
			for inflight > 0 {
				line, err := br.ReadSlice('\n')
				if err != nil {
					errs[c] = err
					return
				}
				at := nowNs()
				inflight--
				if r, ok := parseResponse(line); !ok || r.dropped {
					fails[c]++
				} else if s := (at - t0) * closedSegments / int64(dur); s >= 0 && s < closedSegments {
					counts[c][s]++
				}
				if at < deadline {
					if errs[c] = send(); errs[c] != nil {
						return
					}
				}
				if br.Buffered() == 0 {
					if errs[c] = bw.Flush(); errs[c] != nil {
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	for c := range counts {
		if errs[c] != nil {
			return nil, fmt.Errorf("live: closed loop: %w", errs[c])
		}
		res.failed += fails[c]
	}
	for s := 0; s < closedSegments; s++ {
		n := 0
		for c := range counts {
			n += counts[c][s]
		}
		res.completed += n
		res.rates = append(res.rates, float64(n)/(dur.Seconds()/closedSegments))
	}
	return res, nil
}
