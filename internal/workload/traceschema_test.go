package workload_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"retail/internal/obs"
	"retail/internal/sim"
	"retail/internal/workload"
)

// TestTraceHeaderSchema validates the trace v2 header: strict-decode
// the JSON line into an independent mirror of the schema, then check
// every contract field — format tag, version, seed, index tables and the
// go/commit/CPU provenance block — so a format drift fails in the main
// CI job rather than corrupting recorded corpora. This lives in an
// external test package because the provenance stamp comes from obs,
// which workload itself cannot import (obs sits above the server).
func TestTraceHeaderSchema(t *testing.T) {
	spec := workload.BuiltinSpec("slo-mix")
	tr := workload.NewTrace(spec, 42)
	e := sim.NewEngine()
	g := workload.NewCohortGenerator(spec, 42, tr.RecordSink(nil))
	g.Start(e)
	e.Run(1)

	// Stamp provenance exactly as the runtimes do before writing a trace.
	tr.Header.Provenance = obs.CollectProvenance()

	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(&buf).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}

	// An independent mirror of the header schema: if a field is added,
	// renamed or retyped in the implementation, DisallowUnknownFields (or
	// the per-field checks below) catches it here.
	var hdr struct {
		Format  string    `json:"format"`
		Version int       `json:"version"`
		Spec    string    `json:"spec"`
		SpecSHA string    `json:"spec_sha"`
		Seed    int64     `json:"seed"`
		Apps    []string  `json:"apps"`
		Classes []string  `json:"classes"`
		Scales  []float64 `json:"class_scales"`
		Records int       `json:"records"`

		Provenance struct {
			GoVersion string `json:"go_version"`
			GoOS      string `json:"goos"`
			GoArch    string `json:"goarch"`
			CPU       string `json:"cpu,omitempty"`
			Commit    string `json:"commit,omitempty"`
			Time      string `json:"time"`
		} `json:"provenance"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&hdr); err != nil {
		t.Fatalf("header schema drift: %v", err)
	}
	if dec.More() {
		t.Fatal("trailing data after the header JSON document")
	}

	if hdr.Format != "retail-trace" {
		t.Errorf("format %q, want retail-trace", hdr.Format)
	}
	if hdr.Version != workload.TraceV2Version {
		t.Errorf("version %d, want %d", hdr.Version, workload.TraceV2Version)
	}
	if hdr.Spec != spec.Name || hdr.SpecSHA != spec.SHA() {
		t.Errorf("spec identity %q/%q, want %q/%q", hdr.Spec, hdr.SpecSHA, spec.Name, spec.SHA())
	}
	if hdr.Seed != 42 {
		t.Errorf("seed %d, want 42", hdr.Seed)
	}
	if len(hdr.Apps) == 0 {
		t.Error("empty app table")
	}
	names, scales := spec.Classes()
	if len(hdr.Classes) != len(names) || len(hdr.Scales) != len(scales) {
		t.Errorf("class table %v/%v, want %v/%v", hdr.Classes, hdr.Scales, names, scales)
	}
	for i, s := range hdr.Scales {
		if s <= 0 {
			t.Errorf("class %d scale %g, want positive", i, s)
		}
	}
	if hdr.Records != len(tr.Records) || hdr.Records == 0 {
		t.Errorf("records %d, want %d (> 0)", hdr.Records, len(tr.Records))
	}
	for field, v := range map[string]string{
		"go_version": hdr.Provenance.GoVersion,
		"goos":       hdr.Provenance.GoOS,
		"goarch":     hdr.Provenance.GoArch,
		"time":       hdr.Provenance.Time,
	} {
		if v == "" {
			t.Errorf("provenance missing %s", field)
		}
	}
	if _, err := time.Parse(time.RFC3339, hdr.Provenance.Time); hdr.Provenance.Time != "" && err != nil {
		t.Errorf("bad provenance time %q: %v", hdr.Provenance.Time, err)
	}
}
