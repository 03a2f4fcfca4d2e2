package policy

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestPolicyPackageIsClockAgnostic enforces the layering contract from
// DESIGN.md §10 in-process (the same rule .golangci.yml's depguard
// encodes for the lint job): the policy core may not import a runtime —
// internal/sim, internal/server, internal/live, internal/manager — nor
// the time package. Times arrive as arguments in float64 seconds, and
// timers through the Timer interface the adapters supply.
func TestPolicyPackageIsClockAgnostic(t *testing.T) {
	banned := map[string]string{
		"retail/internal/sim":     "the simulator runtime",
		"retail/internal/server":  "the simulated server runtime",
		"retail/internal/live":    "the wall-clock runtime",
		"retail/internal/manager": "the simulator adapters",
		"time":                    "wall-clock access (take the time as an argument; schedule through policy.Timer)",
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	checked := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		// Non-test sources only: tests may use time for harness plumbing.
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(".", name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			if why, bad := banned[path]; bad {
				t.Errorf("%s imports %q — the policy core must not depend on %s", name, path, why)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no non-test sources checked; the walk is broken")
	}
}
