package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one recorded interval: a call the harness made into a package,
// or (sampled, 1 request in 1024) one hook the server made into a manager.
// Spans of one request share Req; Parent is the span that was open when
// this one began.
type span struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Req     uint64 `json:"req,omitempty"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // indices into spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one; call the returned
// function to close it.
func (t *tracer) begin(layer, name string) func() {
	if t == nil {
		return func() {}
	}
	s := span{ID: uint64(len(t.spans) + 1), Name: name, Layer: layer, StartNs: t.now()}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return func() {
		t.spans[idx].EndNs = t.now()
		t.open = t.open[:len(t.open)-1]
	}
}

// record stores an already-timed interval and returns its span ID. With
// parent 0 the span hangs under the innermost open one. The hook
// decorators and the live generator time with their own clock reads and
// record only sampled requests.
func (t *tracer) record(layer, name string, req, parent uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	s := span{ID: uint64(len(t.spans) + 1), Parent: parent, Req: req, Name: name, Layer: layer,
		StartNs: int64(start.Sub(t.t0)), EndNs: int64(end.Sub(t.t0))}
	if n := len(t.open); parent == 0 && n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each layer's self time: span durations minus the
// part their direct children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make(map[uint64]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.Layer] += time.Duration(s.EndNs - s.StartNs - child[s.ID])
	}
	return self
}

// printSelfTimes prints the per-layer self times of the recorded spans.
func (t *tracer) printSelfTimes(w io.Writer) {
	self := t.selfTimes()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	fmt.Fprintf(w, "span self time by layer (%d spans)\n", len(t.spans))
	for _, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.3f ms\n", l, float64(self[l])/1e6)
	}
}

// printBudget prints a workload's budget table: each layer's cost per
// request next to the end-to-end cost per request, with the residual the
// rows do not explain.
func printBudget(w io.Writer, r *runResult) {
	if len(r.Budget) == 0 || r.E2ENsPerReq <= 0 {
		return
	}
	fmt.Fprintf(w, "budget %s: end-to-end %.0f ns/request\n", r.Workload, r.E2ENsPerReq)
	fmt.Fprintf(w, "  %-34s %12s %7s  %s\n", "layer", "ns/request", "share", "source")
	sum := 0.0
	for _, row := range r.Budget {
		if !strings.HasPrefix(row.Layer, "(") { // parenthesised rows are informational
			sum += row.NsPerReq
		}
		fmt.Fprintf(w, "  %-34s %12.1f %6.1f%%  %s\n", row.Layer, row.NsPerReq, 100*row.NsPerReq/r.E2ENsPerReq, row.Source)
	}
	res := r.E2ENsPerReq - sum
	fmt.Fprintf(w, "  %-34s %12.1f %6.1f%%  end-to-end minus the rows above\n", "residual", res, 100*res/r.E2ENsPerReq)
}
