package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"

	"retail/internal/cpu"
	"retail/internal/live"
)

// The server side of live-loopback: a child of this binary that hosts
// live.NewServer and answers "mark" lines on its stdin with its counters.

// serverMark is the child's answer to one "mark" line on its stdin.
type serverMark struct {
	Addr      string  `json:"addr,omitempty"`
	CPUS      float64 `json:"cpu_s"`
	RSSMB     float64 `json:"rss_mb"`
	Decisions uint64  `json:"decisions"`
	Writes    int     `json:"writes"`
	Go        goStats `json:"go"`
}

// serveMain is the server child: start the runtime, print its address,
// answer marks until stdin closes.
func serveMain(seed int64) error {
	cal, err := calibrate(liveWorkers, seed)
	if err != nil {
		return err
	}
	backend := live.NewMockBackend(cal.Platform.Grid)
	srv, err := live.NewServer(live.ServerConfig{
		Addr: "127.0.0.1:0", Workers: liveWorkers, QoS: cal.App.QoS(),
		Predictor: cal.Model, Backend: backend,
		Exec: func(live.Request, cpu.Level) {}, // the "work" is removed: the runtime's own overhead is what is timed
	})
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Close()
	out := json.NewEncoder(os.Stdout)
	mark := func(full bool) error {
		m := serverMark{Addr: srv.Addr(), CPUS: cpuSeconds(), RSSMB: peakRSSMB(), Decisions: srv.Decisions(), Writes: backend.Writes()}
		if full {
			m.Go = readGoStats() // stops the world: only between phases
		}
		return out.Encode(m)
	}
	if err := mark(true); err != nil {
		return err
	}
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if err := mark(in.Text() == "markfull"); err != nil {
			return err
		}
	}
	return in.Err()
}

// serverProc is the parent's handle on the child.
type serverProc struct {
	cmd   *exec.Cmd
	stdin interface {
		Write([]byte) (int, error)
		Close() error
	}
	out   *bufio.Reader
	mu    sync.Mutex
	ready serverMark
}

func startServer(seed int64) (*serverProc, error) {
	cmd, err := selfCommand("-serve", "-seed", strconv.FormatInt(seed, 10))
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if p.ready, err = p.read(); err != nil {
		p.stop()
		return nil, fmt.Errorf("server child did not come up: %w", err)
	}
	return p, nil
}

func (p *serverProc) read() (serverMark, error) {
	var m serverMark
	line, err := p.out.ReadBytes('\n')
	if err != nil {
		return m, err
	}
	return m, json.Unmarshal(line, &m)
}

// mark asks the child for its counters now.
func (p *serverProc) mark(full bool) (serverMark, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cmd := "mark\n"
	if full {
		cmd = "markfull\n"
	}
	if _, err := p.stdin.Write([]byte(cmd)); err != nil {
		return serverMark{}, err
	}
	return p.read()
}

// stop closes the child's stdin, which ends it, and waits for it.
func (p *serverProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() { p.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		p.cmd.Process.Kill()
		<-done
	}
}
