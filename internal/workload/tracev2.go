package workload

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"retail/internal/sim"
)

// Trace v2 is the versioned record/replay format for request streams:
// one JSON header line (schema-checked, provenance-stamped) followed by
// fixed-layout little-endian binary records, one per request. The
// payload each record carries is exactly what a generator decides before
// the server sees the request — arrival time, app, SLO class, feature
// vector, intrinsic service demand — so replaying a trace through either
// runtime reproduces the run without consuming any RNG.
//
// Determinism contract: arrival and service times are stored as the raw
// IEEE-754 bits of the simulator's float64-seconds scalars, NOT as
// rounded nanosecond integers. Rounding would perturb event order and
// service arithmetic at the ulp level and break byte-identical replay;
// callers that need wall-clock offsets (the live load generator) use
// ArrivalNs, accepting the lossy conversion on their side only.
//
// The canonical form (CanonicalBytes/SHA) masks the header's provenance
// block — exactly as obs.CanonicalJSON does for run reports — so the
// digest of a recording is a pure function of (spec, seed, horizon) and
// matches across machines, times and -parallel settings.

// TraceV2Version is bumped on any layout change; readers refuse other
// versions rather than guessing.
const TraceV2Version = 2

// traceMagic is the header's format tag, so file(1)-style sniffing and
// the schema test can tell a trace from arbitrary JSON.
const traceMagic = "retail-trace"

// TraceProvenance mirrors obs.Provenance field-for-field (workload
// cannot import obs — obs sits above the server which consumes
// workload). Callers stamp it from obs.CollectProvenance.
type TraceProvenance struct {
	GoVersion string `json:"go_version,omitempty"`
	GoOS      string `json:"goos,omitempty"`
	GoArch    string `json:"goarch,omitempty"`
	CPU       string `json:"cpu,omitempty"`
	Commit    string `json:"commit,omitempty"`
	Time      string `json:"time,omitempty"` // RFC3339, UTC
}

// TraceHeader is the JSON first line of a v2 trace.
type TraceHeader struct {
	Format  string `json:"format"` // traceMagic
	Version int    `json:"version"`
	// Spec and SpecSHA identify the generating population; a replay into
	// a different spec context can detect the mismatch.
	Spec    string `json:"spec,omitempty"`
	SpecSHA string `json:"spec_sha,omitempty"`
	// Seed is the run seed the stream was generated from.
	Seed int64 `json:"seed"`
	// Apps and Classes are the index tables records point into; Scales
	// are the per-class QoS′ multipliers, aligned with Classes.
	Apps    []string  `json:"apps"`
	Classes []string  `json:"classes"`
	Scales  []float64 `json:"class_scales,omitempty"`
	// Records is the record count that follows the header.
	Records int `json:"records"`

	Provenance TraceProvenance `json:"provenance"`
}

// TraceRecord is one request. Fields are the generator-owned subset of
// workload.Request; IDs are implicit (records are stored in arrival
// order, the replayer re-assigns 0..n-1 exactly as the generator did).
type TraceRecord struct {
	Arrival     sim.Time
	App         uint8 // index into TraceHeader.Apps
	Class       uint8 // index into TraceHeader.Classes
	Features    []float64
	ServiceBase sim.Duration
	ComputeFrac float64
}

// ArrivalNs returns the arrival offset as integer nanoseconds — the
// live runtime's clock unit. Lossy; never used for simulator replay.
func (r TraceRecord) ArrivalNs() int64 { return int64(float64(r.Arrival) * 1e9) }

// Trace is an in-memory v2 trace: header plus records.
type Trace struct {
	Header  TraceHeader
	Records []TraceRecord

	appIdx map[string]uint8
	// arena is the tail of the current feature chunk: Add carves each
	// record's Features copy out of it, so recording costs one allocation
	// per featureChunk values instead of one per request.
	arena []float64
}

// featureChunk is how many float64 feature values one arena chunk holds
// (64 KB): large enough that chunk allocations vanish from the recording
// path, small enough that a short trace wastes little.
const featureChunk = 8192

// maxPresize caps how many records ReadTrace reserves on the header's
// word alone (56 MiB of TraceRecord): a recording below it decodes with
// exactly the allocations it always had, and a hostile count can no
// longer ask for more than this up front.
const maxPresize = 1 << 20

// NewTrace starts an empty recording for a spec at a run seed. A nil
// spec records a spec-less stream (a plain Generator's): no class table,
// and the app table fills as requests arrive. The caller stamps
// provenance (Trace.Header.Provenance) before writing; CanonicalBytes
// masks it either way.
func NewTrace(spec *Spec, seed int64) *Trace {
	t := &Trace{
		Header: TraceHeader{Format: traceMagic, Version: TraceV2Version, Seed: seed},
		appIdx: map[string]uint8{},
	}
	if spec != nil {
		t.Header.Spec, t.Header.SpecSHA = spec.Name, spec.SHA()
		t.Header.Apps = spec.Apps()
		t.Header.Classes, t.Header.Scales = spec.Classes()
	}
	for i, a := range t.Header.Apps {
		t.appIdx[a] = uint8(i)
	}
	return t
}

// Reserve pre-grows Records to hold n records, sparing the
// append-doubling reallocations when the caller can estimate the stream
// length up front (rate × horizon). Capacity only — recorded requests are
// untouched, and a longer stream still grows as before.
func (t *Trace) Reserve(n int) {
	if cap(t.Records) >= n {
		return
	}
	grown := make([]TraceRecord, len(t.Records), n)
	copy(grown, t.Records)
	t.Records = grown
}

// copyFeatures returns a private copy of f carved from the arena (nil for
// an empty vector, as a decoded record carries). The copy's capacity is
// clipped so an append by a caller cannot reach the next record's values.
func (t *Trace) copyFeatures(f []float64) []float64 {
	if len(f) == 0 {
		return nil
	}
	if len(f) > cap(t.arena)-len(t.arena) {
		n := featureChunk
		if len(f) > n {
			n = len(f)
		}
		t.arena = make([]float64, 0, n)
	}
	start := len(t.arena)
	t.arena = append(t.arena, f...)
	return t.arena[start:len(t.arena):len(t.arena)]
}

// Add appends a request (called at arrival time, before the server
// mutates it). Features are copied; the request may be pooled.
func (t *Trace) Add(r *Request) {
	idx, ok := t.appIdx[r.App]
	if !ok {
		if len(t.Header.Apps) >= 256 {
			panic("workload: trace app table full")
		}
		idx = uint8(len(t.Header.Apps))
		t.Header.Apps = append(t.Header.Apps, r.App)
		t.appIdx[r.App] = idx
	}
	t.Records = append(t.Records, TraceRecord{
		Arrival:     r.Gen,
		App:         idx,
		Class:       r.SLOClass,
		Features:    t.copyFeatures(r.Features),
		ServiceBase: r.ServiceBase,
		ComputeFrac: r.ComputeFrac,
	})
	t.Header.Records = len(t.Records)
}

// RecordSink wraps a request sink so every arrival is recorded on its
// way through — the tap both runtimes use to record while serving.
func (t *Trace) RecordSink(next func(*sim.Engine, *Request)) func(*sim.Engine, *Request) {
	return func(e *sim.Engine, r *Request) {
		t.Add(r)
		if next != nil {
			next(e, r)
		}
	}
}

// Encode serializes header line + binary records.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	hdr, err := json.Marshal(t.Header)
	if err != nil {
		return fmt.Errorf("workload: trace header: %w", err)
	}
	bw.Write(hdr)
	bw.WriteByte('\n')
	var buf [8]byte
	put64 := func(bits uint64) {
		binary.LittleEndian.PutUint64(buf[:], bits)
		bw.Write(buf[:])
	}
	for i, rec := range t.Records {
		if len(rec.Features) > math.MaxUint16 {
			return fmt.Errorf("workload: trace record %d: %d features exceeds uint16", i, len(rec.Features))
		}
		put64(math.Float64bits(float64(rec.Arrival)))
		bw.WriteByte(rec.App)
		bw.WriteByte(rec.Class)
		binary.LittleEndian.PutUint16(buf[:2], uint16(len(rec.Features)))
		bw.Write(buf[:2])
		for _, f := range rec.Features {
			put64(math.Float64bits(f))
		}
		put64(math.Float64bits(float64(rec.ServiceBase)))
		put64(math.Float64bits(rec.ComputeFrac))
	}
	return bw.Flush()
}

// WriteFile writes the trace to path (0644).
func (t *Trace) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadTrace strict-decodes a v2 trace: unknown header fields, a wrong
// magic or version, out-of-range table indices and truncated records are
// all errors — recorded corpora must fail loudly, not skew silently.
func ReadTrace(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var hdr TraceHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("workload: trace header: %w", err)
	}
	if hdr.Format != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (format %q)", hdr.Format)
	}
	if hdr.Version != TraceV2Version {
		return nil, fmt.Errorf("workload: trace version %d, this build reads %d", hdr.Version, TraceV2Version)
	}
	if len(hdr.Apps) == 0 {
		return nil, fmt.Errorf("workload: trace header has no app table")
	}
	if hdr.Scales != nil && len(hdr.Scales) != len(hdr.Classes) {
		return nil, fmt.Errorf("workload: trace header has %d classes but %d scales", len(hdr.Classes), len(hdr.Scales))
	}
	t := &Trace{Header: hdr, appIdx: map[string]uint8{}}
	for i, a := range hdr.Apps {
		t.appIdx[a] = uint8(i)
	}
	var buf [8]byte
	get64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	if hdr.Records < 0 {
		return nil, fmt.Errorf("workload: trace header has a negative record count %d", hdr.Records)
	}
	// The header's count only sizes the first allocation, and only up to
	// maxPresize: past that the records must actually arrive to grow it.
	t.Records = make([]TraceRecord, 0, min(hdr.Records, maxPresize))
	for i := 0; i < hdr.Records; i++ {
		var rec TraceRecord
		bits, err := get64()
		if err != nil {
			return nil, fmt.Errorf("workload: trace record %d truncated: %w", i, err)
		}
		rec.Arrival = sim.Time(math.Float64frombits(bits))
		if _, err := io.ReadFull(br, buf[:4]); err != nil {
			return nil, fmt.Errorf("workload: trace record %d truncated: %w", i, err)
		}
		rec.App, rec.Class = buf[0], buf[1]
		if int(rec.App) >= len(hdr.Apps) {
			return nil, fmt.Errorf("workload: trace record %d: app index %d outside table of %d", i, rec.App, len(hdr.Apps))
		}
		if len(hdr.Classes) > 0 && int(rec.Class) >= len(hdr.Classes) {
			return nil, fmt.Errorf("workload: trace record %d: class index %d outside table of %d", i, rec.Class, len(hdr.Classes))
		}
		n := int(binary.LittleEndian.Uint16(buf[2:4]))
		if n > 0 {
			rec.Features = make([]float64, n)
			for j := 0; j < n; j++ {
				if bits, err = get64(); err != nil {
					return nil, fmt.Errorf("workload: trace record %d truncated: %w", i, err)
				}
				rec.Features[j] = math.Float64frombits(bits)
			}
		}
		if bits, err = get64(); err != nil {
			return nil, fmt.Errorf("workload: trace record %d truncated: %w", i, err)
		}
		rec.ServiceBase = sim.Duration(math.Float64frombits(bits))
		if bits, err = get64(); err != nil {
			return nil, fmt.Errorf("workload: trace record %d truncated: %w", i, err)
		}
		rec.ComputeFrac = math.Float64frombits(bits)
		t.Records = append(t.Records, rec)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("workload: trailing bytes after %d records", hdr.Records)
	}
	return t, nil
}

// ReadTraceFile reads a v2 trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// CanonicalBytes serializes the trace with the provenance block masked —
// the byte-stable form goldens and cross-parallel SHA checks compare.
func (t *Trace) CanonicalBytes() ([]byte, error) {
	masked := *t
	masked.Header.Provenance = TraceProvenance{}
	var buf bytes.Buffer
	if err := masked.Encode(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// SHA returns the hex SHA-256 of the canonical bytes.
func (t *Trace) SHA() (string, error) {
	b, err := t.CanonicalBytes()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RecordTrace generates a spec's request stream for horizon virtual
// seconds on a private engine and returns it as a trace. Arrival
// generation never observes the server, so this offline recording is
// bit-identical to a trace tapped during a measured run at the same
// (spec, seed, horizon) — which is what lets the live load generator
// pre-draw a spec's schedule without running a simulation.
func RecordTrace(spec *Spec, seed int64, horizon sim.Duration) *Trace {
	e := sim.NewEngine()
	t := NewTrace(spec, seed)
	g := NewCohortGenerator(spec, seed, func(en *sim.Engine, r *Request) { t.Add(r) })
	g.Start(e)
	e.Run(sim.Time(horizon))
	g.Stop()
	return t
}

// Player replays a trace into a sink on a sim engine, presenting the
// same Start/Stop surface as the generators. Arrivals are scheduled one
// ahead (record i+1 is scheduled when record i fires) so the event queue
// stays O(1) regardless of trace length. Replay consumes no RNG: the
// emitted requests are bit-identical to the recorded ones, IDs
// re-assigned 0..n-1 in record order exactly as the generator assigned
// them.
type Player struct {
	Trace *Trace
	Sink  func(e *sim.Engine, r *Request)
	// Pool, when set, recycles Request nodes (same ownership contract as
	// the generators).
	Pool *RequestPool

	next    int
	stopped bool
	emit    func(*sim.Engine, any)
}

// NewPlayer builds a replayer for a parsed trace.
func NewPlayer(t *Trace, sink func(*sim.Engine, *Request)) *Player {
	p := &Player{Trace: t, Sink: sink}
	p.emit = func(en *sim.Engine, _ any) { p.onArrival(en) }
	return p
}

// Start schedules the first recorded arrival.
func (p *Player) Start(e *sim.Engine) {
	p.scheduleNext(e)
}

// Stop halts the replay (the already-scheduled arrival may still fire).
func (p *Player) Stop() { p.stopped = true }

func (p *Player) scheduleNext(e *sim.Engine) {
	if p.stopped || p.next >= len(p.Trace.Records) {
		return
	}
	e.AtCall(p.Trace.Records[p.next].Arrival, "workload.replay", p.emit, nil)
}

func (p *Player) onArrival(en *sim.Engine) {
	if p.stopped {
		return
	}
	rec := &p.Trace.Records[p.next]
	var r *Request
	if p.Pool != nil {
		r = p.Pool.Get()
	} else {
		r = &Request{}
	}
	r.ID = uint64(p.next)
	r.App = p.Trace.Header.Apps[rec.App]
	r.SLOClass = rec.Class
	r.Gen = rec.Arrival
	r.Features = append(r.Features[:0], rec.Features...)
	r.ServiceBase = rec.ServiceBase
	r.ComputeFrac = rec.ComputeFrac
	p.next++
	if p.Sink != nil {
		p.Sink(en, r)
	}
	p.scheduleNext(en)
}
