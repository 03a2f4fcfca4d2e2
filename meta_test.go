package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testFuncRE matches a test, benchmark or fuzz function declaration.
var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// testFuncs returns the test, benchmark and fuzz functions declared in
// the _test.go files under each directory (relative to the checkout root;
// "./..." means every directory), keyed by name.
func testFuncs(t *testing.T, dirs ...string) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	for _, dir := range dirs {
		root, recursive := strings.TrimSuffix(dir, "/..."), strings.HasSuffix(dir, "/...")
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (!recursive || skipDir(d.Name())) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
				names[m[1]] = true
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

func skipDir(name string) bool {
	return name == "testdata" || strings.HasPrefix(name, ".")
}

// goTestLine is one `go test` invocation found in a gate file.
type goTestLine struct {
	where string   // file:line
	flag  string   // -run, -bench or -fuzz
	re    string   // the selection regex
	pkgs  []string // package directories
}

// makeVarRE matches a Makefile variable assignment, `NAME = value` or
// `NAME ?= value`.
var makeVarRE = regexp.MustCompile(`(?m)^(\w+)\s*\??=\s*(.*)$`)

// makeVars reads the Makefile's variable assignments.
func makeVars(src string) map[string]string {
	vars := map[string]string{}
	for _, m := range makeVarRE.FindAllStringSubmatch(src, -1) {
		vars[m[1]] = strings.TrimSpace(m[2])
	}
	return vars
}

// shellWords splits a command line into words, honouring single quotes.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	in, quoted := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			quoted = !quoted
			in = true
		case (r == ' ' || r == '\t') && !quoted:
			if in {
				words = append(words, cur.String())
				cur.Reset()
			}
			in = false
		default:
			cur.WriteRune(r)
			in = true
		}
	}
	if in {
		words = append(words, cur.String())
	}
	return words
}

// gateLines returns every test selection in the Makefile and the CI
// workflows: a `go test` line's -run, -bench and -fuzz regexes with the
// packages it names.
func gateLines(t *testing.T) []goTestLine {
	t.Helper()
	var out []goTestLine
	for _, file := range []string{"Makefile", ".github/workflows/ci.yml", ".github/workflows/chaos.yml"} {
		b, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		vars := makeVars(string(b))
		expand := regexp.MustCompile(`\$\((\w+)\)`)
		for i, line := range strings.Split(string(b), "\n") {
			line = expand.ReplaceAllStringFunc(line, func(v string) string {
				if val, ok := vars[v[2:len(v)-1]]; ok {
					return val
				}
				return v
			})
			line = strings.ReplaceAll(line, "$$", "$")
			_, cmd, ok := strings.Cut(line, "go test ")
			if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
				continue
			}
			words := shellWords(cmd)
			var sel []goTestLine
			var pkgs []string
			for j := 0; j < len(words) && words[j] != "|"; j++ {
				switch w := words[j]; {
				case (w == "-run" || w == "-bench" || w == "-fuzz") && j+1 < len(words):
					sel = append(sel, goTestLine{where: file + ":" + strconv.Itoa(i+1), flag: w, re: words[j+1]})
					j++
				case w == "-count" || w == "-timeout" || w == "-fuzztime" || w == "-benchtime" || w == "-parallel" || w == "-cpu":
					j++
				case w == "." || strings.HasPrefix(w, "./"):
					pkgs = append(pkgs, w)
				}
			}
			for _, s := range sel {
				s.pkgs = pkgs
				out = append(out, s)
			}
		}
	}
	return out
}

// alternatives expands every alternation in a parsed regex, inside
// groups too, into one regex per alternative: `A(B|C)D|E` gives ABD, ACD
// and E. With alternation expanded, every leaf binds at least as tightly
// as concatenation, so the leaves' own syntax concatenates safely. Parse
// has already factored common prefixes, and alternatives that differ in
// one character stay a character class.
func alternatives(re *syntax.Regexp) []string {
	switch re.Op {
	case syntax.OpAlternate:
		var out []string
		for _, sub := range re.Sub {
			out = append(out, alternatives(sub)...)
		}
		return out
	case syntax.OpCapture:
		return alternatives(re.Sub[0])
	case syntax.OpConcat:
		out := []string{""}
		for _, sub := range re.Sub {
			var next []string
			for _, head := range out {
				for _, tail := range alternatives(sub) {
					next = append(next, head+tail)
				}
			}
			out = next
		}
		return out
	}
	return []string{re.String()}
}

// TestGateRegexesNameTests: every alternative of every test selection in
// the Makefile and the CI workflows, grouped ones included, names at
// least one test, benchmark or fuzz function of the packages it runs, so
// renaming or moving a test cannot silently drop it from its gate.
func TestGateRegexesNameTests(t *testing.T) {
	lines := gateLines(t)
	perFile := map[string]int{}
	for _, l := range lines {
		file, _, _ := strings.Cut(l.where, ":")
		perFile[file]++
	}
	if perFile["Makefile"] < 6 || perFile[".github/workflows/chaos.yml"] == 0 {
		t.Fatalf("found %d test selections %v; the gate parser is broken", len(lines), perFile)
	}
	for _, l := range lines {
		if l.re == "^$" || l.re == "." {
			continue // no test, or every one
		}
		if len(l.pkgs) == 0 {
			t.Errorf("%s: %s %q names no package", l.where, l.flag, l.re)
			continue
		}
		funcs := testFuncs(t, l.pkgs...)
		parsed, err := syntax.Parse(l.re, syntax.Perl)
		if err != nil {
			t.Errorf("%s: %s %q: %v", l.where, l.flag, l.re, err)
			continue
		}
		for _, alt := range alternatives(parsed) {
			// Only a test name's top level (before a `/`) names a function.
			name, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(name)
			if err != nil {
				t.Errorf("%s: %s alternative %q: %v", l.where, l.flag, alt, err)
				continue
			}
			found := false
			for f := range funcs {
				if re.MatchString(f) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: %s alternative %q matches no function in %v", l.where, l.flag, alt, l.pkgs)
			}
		}
	}
}

// testNameRE matches a test, benchmark or fuzz function named in prose,
// with a trailing … when it stands for every name with that prefix.
var testNameRE = regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(…)?`)

// TestDocsNameDeclaredTests: every test, benchmark or fuzz function the
// documentation or a Go comment names exists, so a rename or deletion
// cannot leave a doc pointing at nothing. CHANGES.md and ROADMAP.md are
// history and may name what is gone.
func TestDocsNameDeclaredTests(t *testing.T) {
	funcs := testFuncs(t, "./...")
	check := func(where, text string) {
		for _, m := range testNameRE.FindAllStringSubmatch(text, -1) {
			name, prefix := m[1], m[2] != ""
			if funcs[name] {
				continue
			}
			if prefix {
				ok := false
				for f := range funcs {
					ok = ok || strings.HasPrefix(f, name)
				}
				if ok {
					continue
				}
			}
			t.Errorf("%s names %s, which no _test.go file declares", where, m[0])
		}
	}
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	skills, err := filepath.Glob(".claude/skills/*/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docs, skills...) {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			check(doc+":"+strconv.Itoa(i+1), line)
		}
	}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				check(fset.Position(c.Pos()).String(), c.Text)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGoldensAreRead: every file under a testdata directory is named by a
// _test.go file of the package that owns the directory, or, in a fuzz
// corpus (testdata/fuzz/<target>/), belongs to a fuzz target the package
// declares. No golden is left behind when the test that read it moves
// or goes.
func TestGoldensAreRead(t *testing.T) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.Contains(filepath.ToSlash(path), "/testdata/") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(files)
	if len(files) == 0 {
		t.Fatal("no testdata files found")
	}
	for _, path := range files {
		pkg, rel, _ := strings.Cut(filepath.ToSlash(path), "/testdata/")
		if fuzz, ok := strings.CutPrefix(rel, "fuzz/"); ok {
			target, _, _ := strings.Cut(fuzz, "/")
			if !testFuncs(t, pkg)[target] {
				t.Errorf("%s: %s declares no fuzz target %s", path, pkg, target)
			}
			continue
		}
		tests, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		read := false
		for _, tf := range tests {
			src, err := os.ReadFile(tf)
			if err != nil {
				t.Fatal(err)
			}
			read = read || strings.Contains(string(src), `"`+filepath.Base(path)+`"`)
		}
		if !read {
			t.Errorf("%s: no _test.go file in %s names it", path, pkg)
		}
	}
}

// TestGoldenTestsAreGated: every test whose body names a file in its
// package's testdata/ directory (a golden; fuzz corpora aside) is
// selected by `make golden-check`, package and name, so a new golden
// cannot land outside the gate that `make golden-update` rewrites.
func TestGoldenTestsAreGated(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var gate *goTestLine
	for i, line := range strings.Split(string(mk), "\n") {
		if line != "golden-check:" {
			continue
		}
		recipe := "Makefile:" + strconv.Itoa(i+2)
		for _, l := range gateLines(t) {
			if l.where == recipe && l.flag == "-run" {
				gate = &l
			}
		}
	}
	if gate == nil {
		t.Fatal("Makefile has no golden-check target with a go test -run line")
	}
	run := regexp.MustCompile(gate.re)
	gatedPkg := map[string]bool{}
	for _, p := range gate.pkgs {
		gatedPkg[filepath.Clean(p)] = true
	}

	goldens := map[string]map[string]bool{} // package dir → golden file names
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || filepath.Base(filepath.Dir(path)) != "testdata" {
			return nil
		}
		pkg := filepath.Dir(filepath.Dir(path))
		if goldens[pkg] == nil {
			goldens[pkg] = map[string]bool{}
		}
		goldens[pkg][d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	found := 0
	for pkg, names := range goldens {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, file := range files {
			f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					lit, ok := n.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					name, err := strconv.Unquote(lit.Value)
					if err != nil || !names[name] {
						return true
					}
					found++
					where := fset.Position(lit.Pos()).String()
					switch {
					case fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Test"):
						t.Errorf("%s: %s names golden %s; only a test function may, so that golden-check can select it", where, fn.Name.Name, name)
					case !gatedPkg[pkg] || !run.MatchString(fn.Name.Name):
						t.Errorf("%s: %s reads golden %s but golden-check (%s %v) does not select it", where, fn.Name.Name, name, gate.re, gate.pkgs)
					}
					return true
				})
			}
		}
	}
	if found == 0 {
		t.Fatal("no test names a golden; the scan is broken")
	}
}
