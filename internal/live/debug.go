package live

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"time"

	"retail/internal/obs"
)

// LiveSpan is one completed request in the wall-clock runtime's flight
// ring: the live counterpart of the simulator's trace.Span, carrying the
// same decision attribution (chosen level, queue occupancy and QoS′ at
// decision time, predicted vs. actual service).
type LiveSpan struct {
	ID         uint64  `json:"req_id"`
	Worker     int     `json:"worker"`
	RecvNs     int64   `json:"recv_ns"`
	StartNs    int64   `json:"start_ns"`
	EndNs      int64   `json:"end_ns"`
	Level      int     `json:"level"`
	QueueLen   int     `json:"queue_len"`
	QoSPrimeNs int64   `json:"qos_prime_ns"`
	PredictedS float64 `json:"predicted_s"`
	ActualS    float64 `json:"actual_s"`
	SojournS   float64 `json:"sojourn_s"`
	Violated   bool    `json:"violated"`
}

// recordSpan appends one completed request to the bounded flight ring
// (overwrite-oldest). Callers must not hold s.mu.
func (s *Server) recordSpan(sp LiveSpan) {
	if s.spanCap <= 0 {
		return
	}
	s.mu.Lock()
	if len(s.spans) < s.spanCap {
		s.spans = append(s.spans, sp)
	} else {
		s.spans[s.spanHead] = sp
		s.spanFull = true
	}
	s.spanHead++
	if s.spanHead == s.spanCap {
		s.spanHead = 0
	}
	s.mu.Unlock()
}

// Spans returns the flight ring's contents in completion order (oldest
// first).
func (s *Server) Spans() []LiveSpan {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.spanFull {
		return append([]LiveSpan(nil), s.spans...)
	}
	out := make([]LiveSpan, 0, len(s.spans))
	out = append(out, s.spans[s.spanHead:]...)
	out = append(out, s.spans[:s.spanHead]...)
	return out
}

// traceSnapshot is the /debug/trace response envelope.
type traceSnapshot struct {
	QoSNs      int64      `json:"qos_ns"`
	QoSPrimeNs int64      `json:"qos_prime_ns"`
	Decisions  uint64     `json:"decisions"`
	Spans      []LiveSpan `json:"spans"`
}

// DebugHandler serves the runtime's introspection endpoints:
//
//	/debug/trace   — JSON flight ring of recent requests with decision
//	                 attribution (level, queue depth, QoS′, predicted vs.
//	                 actual service time)
//	/debug/fleet   — per-app roll-up of the server's telemetry registry
//	                 (obs.FleetHandler); absent when the server runs
//	                 without a Metrics registry
//	/debug/pprof/  — the standard net/http/pprof profiles; the worker
//	                 and connection goroutines carry retail=decide /
//	                 retail=ingress pprof labels so profiles split the
//	                 two hot paths
//
// Mount it alongside a telemetry Registry's Handler; retail live does
// so under -metrics-addr.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	if s.cfg.Metrics != nil {
		mux.Handle("/debug/fleet", obs.FleetHandler(s.cfg.Metrics))
	}
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		snap := traceSnapshot{
			QoSNs:      int64(float64(s.cfg.QoS.Latency) * float64(time.Second)),
			QoSPrimeNs: s.QoSPrime().Nanoseconds(),
			Decisions:  s.Decisions(),
			Spans:      s.Spans(),
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
