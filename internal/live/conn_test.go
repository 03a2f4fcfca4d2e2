package live

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"retail/internal/policy"
)

// testWait bounds every wait on an event that should come at once.
const testWait = 10 * time.Second

// fakeConn is the write side of a connection: it keeps every Write,
// announces each on wrote, and — when hold is set — blocks in Write until
// Close, like a socket whose peer never reads.
type fakeConn struct {
	hold  bool
	wrote chan struct{}

	mu     sync.Mutex
	writes [][]byte
	closed chan struct{}
}

func newFakeConn(hold bool) *fakeConn {
	// wrote never blocks the writer under test: no test makes more writes.
	return &fakeConn{hold: hold, wrote: make(chan struct{}, 1024), closed: make(chan struct{})}
}

func (c *fakeConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	c.wrote <- struct{}{}
	if c.hold {
		<-c.closed
		return 0, net.ErrClosed
	}
	return len(p), nil
}

func (c *fakeConn) Close() error { close(c.closed); return nil }

func (c *fakeConn) snapshot() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

func waitFor(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(testWait):
		t.Fatalf("timed out waiting for %s", what)
	}
}

func testResponse(i int) Response {
	return Response{ID: uint64(i), GenNs: 1700000000000000000 + int64(i), RecvNs: 1700000000000040000,
		StartNs: 1700000000000050000, EndNs: 1700000000000050100, Level: i % 12, Dropped: i%7 == 0}
}

// startWriter runs writeResponses over w the way serveConn does.
func startWriter(w io.Writer, resp chan Response) (gone chan struct{}, done chan error) {
	gone, done = make(chan struct{}), make(chan error, 1)
	go func() { done <- writeResponses(w, resp, gone, nil) }()
	return gone, done
}

// TestWriterGathersQueued: responses already queued leave together — 64
// of them in at most two writes — in channel order, as json.Encoder's bytes.
func TestWriterGathersQueued(t *testing.T) {
	resp := make(chan Response, respQueue)
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for i := 1; i <= respQueue; i++ {
		resp <- testResponse(i)
		enc.Encode(testResponse(i))
	}
	conn := newFakeConn(false)
	gone, done := startWriter(conn, resp)
	var got []byte
	for len(got) < want.Len() {
		waitFor(t, conn.wrote, "a write")
		got = bytes.Join(conn.snapshot(), nil)
	}
	close(gone)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("wrote\n%s\nwant\n%s", got, want.Bytes())
	}
	if n := len(conn.snapshot()); n > 2 {
		t.Errorf("%d queued responses took %d writes, want <= 2", respQueue, n)
	}
}

// TestWriterLoneResponse: a response with nothing behind it is written
// without waiting for company.
func TestWriterLoneResponse(t *testing.T) {
	resp := make(chan Response, respQueue)
	conn := newFakeConn(false)
	gone, done := startWriter(conn, resp)
	for i := 1; i <= 3; i++ {
		r := testResponse(i)
		resp <- r
		waitFor(t, conn.wrote, fmt.Sprintf("response %d to be written on its own", i))
		if got, want := conn.snapshot()[i-1], appendResponse(nil, &r); !bytes.Equal(got, want) {
			t.Fatalf("write %d = %q, want %q", i, got, want)
		}
	}
	close(gone)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWriterBlockedPeerBounded: behind a peer that never reads, the
// connection holds one write buffer plus the channel's respQueue
// responses and no more; gone releases the producers, and the blocked
// write returns only when the connection closes.
func TestWriterBlockedPeerBounded(t *testing.T) {
	resp := make(chan Response, respQueue)
	conn := newFakeConn(true)
	gone, done := startWriter(conn, resp)

	// A producer as Server.respond is one: it blocks on a full channel
	// until gone. accepted announces each response the connection took.
	accepted, produced := make(chan struct{}, 4096), make(chan struct{})
	go func() {
		defer close(produced)
		for i := 1; i <= 4096; i++ {
			select {
			case resp <- testResponse(i):
				accepted <- struct{}{}
			case <-gone:
				return
			}
		}
	}()
	waitFor(t, conn.wrote, "the writer to block in Write")
	held := conn.snapshot()[0]
	if len(held) > respFlushBytes+256 {
		t.Errorf("write buffer holds %d bytes, want <= %d plus one response", len(held), respFlushBytes)
	}
	// The channel fills behind the blocked write, and then nothing moves.
	for n, want := 0, bytes.Count(held, []byte("\n"))+respQueue; n < want; n++ {
		waitFor(t, accepted, fmt.Sprintf("response %d of %d to be queued", n+1, want))
	}
	select {
	case <-accepted:
		t.Fatal("the connection took a response beyond its buffer and channel")
	case <-produced:
		t.Fatal("the producer ran to completion against a blocked peer")
	case <-time.After(50 * time.Millisecond):
	}
	close(gone)
	waitFor(t, produced, "gone to release the producer")
	select {
	case err := <-done:
		t.Fatalf("writer returned %v with its write still blocked", err)
	default:
	}
	conn.Close()
	select {
	case err := <-done:
		if !errors.Is(err, net.ErrClosed) {
			t.Errorf("writer returned %v, want the write's error", err)
		}
	case <-time.After(testWait):
		t.Fatal("closing the connection did not release the blocked write")
	}
	if n := len(conn.snapshot()); n != 1 {
		t.Errorf("%d writes, want 1", n)
	}
}

// brokenConn is a connection whose write side fails.
type brokenConn struct {
	net.Conn
	closed chan struct{}
	once   sync.Once
}

func (c *brokenConn) Write([]byte) (int, error) { return 0, errors.New("write: broken pipe") }

func (c *brokenConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// TestWriteErrorClosesConnection: when a response cannot be written the
// server closes the connection, which ends its reader, and the workers
// that still hold responses for it do not block: another connection is
// served, and Close returns.
func TestWriteErrorClosesConnection(t *testing.T) {
	srv := saturationServer(t, 2, policy.Params{})
	client, server := net.Pipe()
	defer client.Close()
	broken := &brokenConn{Conn: server, closed: make(chan struct{})}
	served := make(chan struct{})
	srv.wg.Add(1)
	go func() { srv.serveConn(broken); close(served) }()
	go func() { // far more requests than the response channel holds
		var buf []byte
		for i := 1; i <= 50*respQueue; i++ {
			buf = benchRequest(buf, uint64(i), time.Now().UnixNano(), []float64{1})
		}
		client.Write(buf) // fails once the server side closes
	}()
	waitFor(t, broken.closed, "the server to close the connection")
	waitFor(t, served, "the connection's goroutines to end")

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(testWait))
	if _, err := conn.Write(benchRequest(nil, 42, time.Now().UnixNano(), []float64{1})); err != nil {
		t.Fatal(err)
	}
	var r Response
	if err := json.NewDecoder(conn).Decode(&r); err != nil || r.ID != 42 {
		t.Fatalf("second connection: response %+v, error %v", r, err)
	}
}

// TestPipelinedConnection: 10 000 requests written down one connection
// without waiting are each answered exactly once, with server stamps in
// order.
func TestPipelinedConnection(t *testing.T) {
	const n = 10000
	srv := saturationServer(t, 2, policy.Params{})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * testWait))
	sendErr := make(chan error, 1)
	go func() {
		bw := bufio.NewWriter(conn)
		var buf []byte
		for i := 1; i <= n; i++ {
			buf = benchRequest(buf[:0], uint64(i), time.Now().UnixNano(), []float64{float64(i), 0.5})
			if _, err := bw.Write(buf); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- bw.Flush()
	}()
	seen := make([]bool, n+1)
	dec := json.NewDecoder(conn)
	for i := 0; i < n; i++ {
		var r Response
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("after %d responses: %v", i, err)
		}
		switch {
		case r.ID < 1 || r.ID > n:
			t.Fatalf("response for unknown id %d", r.ID)
		case seen[r.ID]:
			t.Fatalf("id %d answered twice", r.ID)
		case r.Dropped || r.GenNs == 0 || r.RecvNs > r.StartNs || r.StartNs > r.EndNs:
			t.Fatalf("response %+v: dropped, or stamps out of order", r)
		}
		seen[r.ID] = true
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	if got := srv.Decisions(); got != n {
		t.Errorf("%d decisions for %d requests", got, n)
	}
}

// TestFrameCap: a frame past maxFrame gets its connection closed, while
// another connection is served throughout; a large frame under the cap
// is an ordinary request.
func TestFrameCap(t *testing.T) {
	srv := saturationServer(t, 2, policy.Params{})
	dial := func() net.Conn {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.SetDeadline(time.Now().Add(testWait))
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	roundTrip := func(conn net.Conn, id uint64, frame string) {
		t.Helper()
		if _, err := io.WriteString(conn, frame); err != nil {
			t.Fatal(err)
		}
		var r Response
		if err := json.NewDecoder(conn).Decode(&r); err != nil || r.ID != id || r.Dropped {
			t.Fatalf("request %d: response %+v, error %v", id, r, err)
		}
	}
	bystander := dial()
	roundTrip(bystander, 1, `{"id":1,"features":[1]}`+"\n")

	// 2 MiB of features, in the flat shape and outside it (encoding/json
	// reads the second): neither is answered, both connections end.
	for _, open := range []string{`{"id":2,"features":[`, `{"ID":2,"features":[`} {
		big := dial()
		go io.WriteString(big, open+strings.Repeat("1,", 1<<20)+"1]}\n") // fails when the server closes
		if n, err := big.Read(make([]byte, 1)); err == nil || n != 0 {
			t.Fatalf("%s…: read %d bytes, error %v; want the connection closed unanswered", open, n, err)
		} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%s…: connection still open after %v", open, testWait)
		}
		roundTrip(bystander, 3, `{"id":3,"features":[1]}`+"\n")
	}

	// 100 KB, both ways.
	feats := strings.Repeat("1.5,", 25<<10) + "1.5]}\n"
	roundTrip(bystander, 4, `{"id":4,"features":[`+feats)
	roundTrip(bystander, 5, `{"ID":5,"features":[`+feats)
}
