// Command linkcheck lists the production functions under internal/ that
// no binary links, and exits 1 if any of them is not on its allowlist.
//
// It builds every binary of the repository (each cmd/ and examples/ main
// package, and the bench/ module) into a temporary directory with inlining
// off, so that every reachable function keeps its own symbol, reads their
// symbol tables with `go tool nm`, and compares them with the function
// declarations of internal/'s non-test files for this GOOS/GOARCH. A
// function that only tests call belongs in a _test.go file, or nowhere.
//
//	go run ./tools/linkcheck        # from the root of the checkout
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

const module = "retail"

// allow lists the functions kept although no binary links them: one
// entry per reason, each naming the ROADMAP item that uses or removes
// them. A key names a function or method, or a type for all its methods.
var allow = []struct {
	reason string
	keys   []string
}{
	{
		reason: "the replay-parity oracle: internal/experiments' parity and workload-golden tests compare the simulator's decisions with it; ROADMAP item 11 replaces it with the live server's core on an injected clock",
		keys:   []string{"retail/internal/live.ReplayDecisions", "retail/internal/live.replayPipeline"},
	},
	{
		reason: "folds per-worker histogram shards into one; ROADMAP item 15's live shards are its caller",
		keys:   []string{"retail/internal/telemetry.Histogram.Merge"},
	},
	{
		reason: "work counters that internal/core's TestPolicyDecisionsPinned hashes into six of its eight pinned digests; ROADMAP item 8's deterministic work counters (predictor consultations per request) are their production reader",
		keys: []string{
			"retail/internal/manager.Rubik.Inferences", "retail/internal/policy.Rubik.Estimates",
			"retail/internal/manager.Gemini.Boosts", "retail/internal/manager.EETL.Boosts",
		},
	},
}

// allowed returns the allowlist key that covers the declaration key, or "".
func allowed(key string) string {
	for _, e := range allow {
		for _, k := range e.keys {
			if key == k || strings.HasPrefix(key, k+".") {
				return k
			}
		}
	}
	return ""
}

func main() {
	bad, n, err := check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "linkcheck:", err)
		os.Exit(1)
	}
	for _, b := range bad {
		fmt.Println(b)
	}
	if len(bad) > 0 {
		os.Exit(1)
	}
	fmt.Printf("linkcheck: %d functions, each linked or allowlisted\n", n)
}

// check returns one line for each function that is neither linked nor
// allowlisted and for each stale allowlist entry, and the number of
// functions it looked at.
func check() (bad []string, n int, err error) {
	tmp, err := os.MkdirTemp("", "linkcheck")
	if err != nil {
		return nil, 0, err
	}
	defer os.RemoveAll(tmp)
	linked, err := linkedSymbols(tmp)
	if err != nil {
		return nil, 0, err
	}
	decls, err := declarations("internal")
	if err != nil {
		return nil, 0, err
	}
	used := map[string]bool{}
	for key, pos := range decls {
		k := allowed(key)
		used[k] = true
		switch {
		case linked[key] && k != "":
			bad = append(bad, fmt.Sprintf("%s: %s is linked; drop %s from the allowlist", pos, key, k))
		case !linked[key] && k == "":
			bad = append(bad, fmt.Sprintf("%s: %s is linked into no binary", pos, key))
		}
	}
	for _, e := range allow {
		for _, k := range e.keys {
			if !used[k] {
				bad = append(bad, fmt.Sprintf("allowlist: %s is not declared under internal/", k))
			}
		}
	}
	sort.Strings(bad)
	return bad, len(decls), nil
}

// linkedSymbols builds every binary into dir and returns the function
// keys (see symbolKey) of the text symbols any of them contains.
func linkedSymbols(dir string) (map[string]bool, error) {
	type target struct{ moduleDir, pkg, out string }
	targets := []target{{"bench", ".", filepath.Join(dir, "bench")}}
	for _, pattern := range []string{"cmd/*", "examples/*"} {
		mains, err := filepath.Glob(pattern)
		if err != nil {
			return nil, err
		}
		for _, m := range mains {
			targets = append(targets, target{".", "./" + filepath.ToSlash(m), filepath.Join(dir, strings.ReplaceAll(m, string(filepath.Separator), "_"))})
		}
	}

	linked := map[string]bool{}
	for _, t := range targets {
		build := exec.Command("go", "build", "-C", t.moduleDir, "-gcflags=all=-l", "-o", t.out, t.pkg)
		build.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOWORK=off", "GOTOOLCHAIN=local")
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("build %s in %s: %v\n%s", t.pkg, t.moduleDir, err, out)
		}
		out, err := exec.Command("go", "tool", "nm", t.out).Output()
		if err != nil {
			return nil, fmt.Errorf("nm %s: %v", t.out, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// address kind name, where the name may hold spaces inside a
			// generic shape's brackets
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolKey(f[2])] = true
			}
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("nm %s: %v", t.out, err)
		}
	}
	return linked, nil
}

// symbolKey maps a linker symbol to the key of the declaration it comes
// from: instantiation brackets dropped, so pkg.F[go.shape.int] is pkg.F,
// the pointer receiver unwrapped, so pkg.(*T).M and the compiler's
// pointer wrapper of a value method are both pkg.T.M, and an assembly
// function's ABI suffix dropped.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return strings.TrimSuffix(strings.NewReplacer("(*", "", ")", "").Replace(b.String()), ".abi0")
}

// declarations returns the key and position of every function and method
// declared in a non-test .go file under root that builds for this
// GOOS/GOARCH, except init functions.
func declarations(root string) (map[string]string, error) {
	decls := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || strings.Contains(path, "testdata") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Clean(dir))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			key := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				key = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			decls[key] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	return decls, err
}

// recvName is the receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return fmt.Sprintf("%T", e)
		}
	}
}
