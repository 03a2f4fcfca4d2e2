package experiments

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSteadyFiguresGolden pins the five figures built from steady-state
// cells (one app at a fraction of its max load under one manager) at the
// quick configuration: Render() and CSV() of Fig 1, Fig 11, Fig 12 and the
// ablation, and Render() of the §VII-F overhead. Refresh with -update.
func TestSteadyFiguresGolden(t *testing.T) {
	cfg := Quick()
	type figure interface{ Render() string }
	figures := []struct {
		name string
		run  func() (figure, error)
	}{
		{"fig1", func() (figure, error) { return Fig1(cfg) }},
		{"fig11", func() (figure, error) { return Fig11(cfg, []string{"xapian"}) }},
		{"fig12", func() (figure, error) { return Fig12(cfg, "xapian") }},
		{"ablation", func() (figure, error) { return Ablation(cfg, "xapian") }},
		{"overhead", func() (figure, error) { return Overhead(cfg, "xapian") }},
	}
	var buf bytes.Buffer
	for _, f := range figures {
		r, err := f.run()
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		buf.WriteString("== " + f.name + "\n" + r.Render())
		if c, ok := r.(interface{ CSV(io.Writer) error }); ok {
			buf.WriteString("-- " + f.name + " csv\n")
			if err := c.CSV(&buf); err != nil {
				t.Fatalf("%s csv: %v", f.name, err)
			}
		}
	}
	got := buf.String()
	golden := filepath.Join("testdata", "steady_golden.txt")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("steady figures diverge from golden at line %d:\n got: %q\nwant: %q\n(run with -update after intentional changes)",
					i+1, gl[i], at(wl, i))
			}
		}
		t.Fatalf("steady figures diverge from golden in length: got %d lines, want %d", len(gl), len(wl))
	}
}
