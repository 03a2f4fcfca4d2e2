package trace

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"

	"retail/internal/sim"
)

// Chrome trace-event export: the "JSON Array Format" documented by the
// Chromium trace-event spec and consumed by Perfetto (ui.perfetto.dev) and
// chrome://tracing. The layout:
//
//   - pid 1 "workers": one thread per worker core; each served request is
//     a complete ("X") slice from Start to End whose args carry the
//     decision attribution (level, binding request, predicted vs actual
//     service time, QoS′ at decision, queue depth at arrival);
//   - pid 2 "queueing": one thread per worker; a slice per request that
//     waited, from Arrival to Start, so queueing delay is visible as a
//     track above the execution it delayed;
//   - dropped requests appear as instant ("i") events on the worker track;
//   - a counter ("C") series "freq level w<N>" per worker plots the
//     decided frequency level over time — the DVFS trajectory next to the
//     requests that caused it.
//
// Timestamps are microseconds of virtual time. The output is
// deterministic: events are sorted by (ts, pid, tid, name) and floats are
// formatted with strconv, so a fixed-seed run exports byte-identical JSON
// (pinned by TestChromeTraceGolden).

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   jsonMicros     `json:"ts"`
	Dur  *jsonMicros    `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// jsonMicros formats microseconds compactly and deterministically ('g'
// would switch to exponent notation for long runs; 'f' with -1 precision
// keeps the shortest exact decimal form).
type jsonMicros float64

func (m jsonMicros) MarshalJSON() ([]byte, error) {
	return strconv.AppendFloat(nil, float64(m), 'f', -1, 64), nil
}

func micros(t sim.Duration) jsonMicros { return jsonMicros(float64(t) * 1e6) }

func microsPtr(t sim.Duration) *jsonMicros {
	m := micros(t)
	return &m
}

const (
	chromePidWorkers = 1
	chromePidQueue   = 2
)

// WriteChromeTrace writes spans and the frequency counter track as Chrome
// trace-event JSON. Spans and freq points may come straight from a
// FlightRecorder (Spans/FreqPoints) or from any other source.
func WriteChromeTrace(w io.Writer, spans []Span, freq []FreqPoint) error {
	events := make([]chromeEvent, 0, 2*len(spans)+len(freq)+8)
	workers := map[int]bool{}

	for _, sp := range spans {
		workers[sp.Worker] = true
		args := map[string]any{
			"req":              sp.ReqID,
			"app":              sp.App,
			"level":            sp.Level,
			"queue_at_arrival": sp.QueueAtArrival,
			"decisions":        sp.Decisions,
		}
		if sp.Binding != 0 {
			args["binding_req"] = sp.Binding
		}
		if sp.QoSPrime > 0 {
			args["qos_prime_us"] = float64(micros(sp.QoSPrime))
		}
		if sp.DecisionDelay > 0 {
			args["decision_delay_us"] = float64(micros(sp.DecisionDelay))
		}
		if sp.Dropped {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("drop req %d", sp.ReqID),
				Ph:   "i", Ts: micros(sim.Duration(sp.Arrival)),
				Pid: chromePidWorkers, Tid: sp.Worker, Args: args,
			})
			continue
		}
		args["predicted_us"] = predictedArg(sp.PredictedService)
		args["actual_us"] = float64(micros(sp.ServiceTime()))
		if err, ok := sp.PredictionError(); ok {
			args["pred_err_us"] = err * 1e6
		}
		args["sojourn_us"] = float64(micros(sp.Sojourn()))
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("req %d", sp.ReqID),
			Ph:   "X", Ts: micros(sim.Duration(sp.Start)),
			Dur: microsPtr(sp.ServiceTime()),
			Pid: chromePidWorkers, Tid: sp.Worker, Args: args,
		})
		if wait := sp.QueueDelay(); wait > 0 {
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("wait req %d", sp.ReqID),
				Ph:   "X", Ts: micros(sim.Duration(sp.Arrival)),
				Dur: microsPtr(wait),
				Pid: chromePidQueue, Tid: sp.Worker,
				Args: map[string]any{"req": sp.ReqID, "queue_at_arrival": sp.QueueAtArrival},
			})
		}
	}
	for _, fp := range freq {
		workers[fp.Worker] = true
		events = append(events, chromeEvent{
			Name: fmt.Sprintf("freq level w%d", fp.Worker),
			Ph:   "C", Ts: micros(sim.Duration(fp.At)),
			Pid: chromePidWorkers, Tid: fp.Worker,
			Args: map[string]any{"level": fp.Level},
		})
	}

	// Stable order: events by (ts, pid, tid, ph, name); metadata first.
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.Ts != b.Ts {
			return a.Ts < b.Ts
		}
		if a.Pid != b.Pid {
			return a.Pid < b.Pid
		}
		if a.Tid != b.Tid {
			return a.Tid < b.Tid
		}
		if a.Ph != b.Ph {
			return a.Ph < b.Ph
		}
		return a.Name < b.Name
	})

	meta := make([]chromeEvent, 0, 2*len(workers)+2)
	meta = append(meta,
		chromeEvent{Name: "process_name", Ph: "M", Pid: chromePidWorkers,
			Args: map[string]any{"name": "workers"}},
		chromeEvent{Name: "process_name", Ph: "M", Pid: chromePidQueue,
			Args: map[string]any{"name": "queueing"}},
	)
	ids := make([]int, 0, len(workers))
	for id := range workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		meta = append(meta,
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePidWorkers, Tid: id,
				Args: map[string]any{"name": fmt.Sprintf("worker %d", id)}},
			chromeEvent{Name: "thread_name", Ph: "M", Pid: chromePidQueue, Tid: id,
				Args: map[string]any{"name": fmt.Sprintf("worker %d queue", id)}},
		)
	}

	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	first := true
	writeEvent := func(ev chromeEvent) error {
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for _, ev := range meta {
		if err := writeEvent(ev); err != nil {
			return err
		}
	}
	for _, ev := range events {
		if err := writeEvent(ev); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// predictedArg maps the span's predicted service (NaN = none recorded) to
// a JSON-safe value in microseconds.
func predictedArg(predicted float64) any {
	if math.IsNaN(predicted) {
		return nil
	}
	return predicted * 1e6
}

// WriteChrome exports the recorder's retained spans and frequency track.
func (fr *FlightRecorder) WriteChrome(w io.Writer) error {
	return WriteChromeTrace(w, fr.Spans(), fr.FreqPoints())
}

// WriteSpanCSV writes one row per span: the lifecycle timestamps plus the
// decision attribution, the tabular twin of the Chrome export.
func WriteSpanCSV(out io.Writer, spans []Span) error {
	w := csv.NewWriter(out)
	header := []string{
		"req_id", "app", "worker", "arrival_s", "ready_s", "start_s", "end_s",
		"dropped", "queue_at_arrival", "level", "binding_req",
		"qos_prime_s", "predicted_s", "actual_s", "pred_err_s",
		"decision_delay_s", "decisions", "sojourn_s",
	}
	if err := w.Write(header); err != nil {
		return err
	}
	ft := func(t sim.Time) string { return strconv.FormatFloat(float64(t), 'g', -1, 64) }
	for _, sp := range spans {
		predicted, predErr := "", ""
		if !math.IsNaN(sp.PredictedService) {
			predicted = strconv.FormatFloat(sp.PredictedService, 'g', -1, 64)
		}
		if err, ok := sp.PredictionError(); ok {
			predErr = strconv.FormatFloat(err, 'g', -1, 64)
		}
		row := []string{
			strconv.FormatUint(sp.ReqID, 10),
			sp.App,
			strconv.Itoa(sp.Worker),
			ft(sp.Arrival), ft(sp.Ready), ft(sp.Start), ft(sp.End),
			strconv.FormatBool(sp.Dropped),
			strconv.Itoa(sp.QueueAtArrival),
			strconv.Itoa(sp.Level),
			strconv.FormatUint(sp.Binding, 10),
			ft(sp.QoSPrime),
			predicted,
			ft(sp.ServiceTime()),
			predErr,
			ft(sp.DecisionDelay),
			strconv.Itoa(sp.Decisions),
			ft(sp.Sojourn()),
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// WriteCSV exports the recorder's retained spans as CSV.
func (fr *FlightRecorder) WriteCSV(w io.Writer) error {
	return WriteSpanCSV(w, fr.Spans())
}
