package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// This file implements the Prometheus text exposition format v0.0.4:
//
//	# HELP <name> <help>
//	# TYPE <name> counter|gauge|histogram
//	<name>{label="value",...} <number>
//
// Histograms expose cumulative buckets with `le` upper bounds, plus
// `_sum` and `_count` series. Only non-empty buckets (and the mandatory
// `le="+Inf"`) are written: the log-linear layout has 1920 buckets and
// any one workload populates a few dozen, so sparse emission keeps the
// payload small while remaining valid Prometheus exposition (cumulative
// counts over ascending `le` edges).

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(s)
}

// escapeHelp escapes a HELP string.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(s)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders {k="v",...}; extra appends one more pair (used for
// the histogram `le` label). Returns "" when there are no labels.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(extraValue)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WriteText writes every registered metric in Prometheus text format.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.visit(func(f *family) {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, key := range f.order {
			lvals := f.labels[key]
			switch inst := f.children[key].(type) {
			case *Counter:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, labelString(f.labelNames, lvals, "", ""), inst.Value())
			case *Gauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, labelString(f.labelNames, lvals, "", ""), formatFloat(inst.Value()))
			case *Histogram:
				s := inst.Snapshot()
				var cum uint64
				for i, c := range s.Counts {
					if c == 0 {
						continue
					}
					cum += c
					_, hi := bucketBounds(i)
					le := formatFloat(float64(hi) / unitScale)
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, lvals, "le", le), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name, labelString(f.labelNames, lvals, "le", "+Inf"), s.Count)
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, labelString(f.labelNames, lvals, "", ""), formatFloat(s.Sum))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, labelString(f.labelNames, lvals, "", ""), s.Count)
			}
		}
	})
	return bw.Flush()
}

// Handler returns an http.Handler serving:
//
//	/metrics — Prometheus text exposition of this registry
//	/healthz — 200 "ok\n" (liveness)
//
// Mount it on a mux or hand it to Serve.
func (r *Registry) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	return mux
}

// HTTPServer is a running metrics endpoint bound to a concrete address.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// ServeHandler binds addr and serves an arbitrary handler in a background
// goroutine — used to co-host the registry's /metrics with a runtime's
// /debug endpoints on one port. Close the returned server to stop.
func ServeHandler(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	hs := &HTTPServer{ln: ln, srv: &http.Server{Handler: h}}
	go func() { _ = hs.srv.Serve(ln) }()
	return hs, nil
}

// Addr returns the bound address (useful with ":0").
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *HTTPServer) Close() error { return s.srv.Close() }
