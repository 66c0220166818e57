package cofs_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"cofs/internal/bench"
	"cofs/internal/params"
)

// These tests keep the documentation wired to the tree: every relative
// markdown link in README.md and docs/ must resolve to a real file or
// directory, every internal/ package the README names must exist, and
// every deployment knob and tool flag the docs name must be real, and
// every test and benchmark pattern the CI workflow names must select
// something. CI runs them as the docs job (go test -run TestDocs .).

// docFiles returns README.md plus every markdown page under docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md"}
	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	return append(files, pages...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocsMarkdownLinksResolve(t *testing.T) {
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(body), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external: not this test's business
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // pure in-page anchor
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: link target %q does not resolve (%s)", file, m[1], resolved)
			}
		}
	}
}

var readmePkg = regexp.MustCompile(`internal/[a-z0-9]+(?:/[a-z0-9]+)*`)

func TestDocsReadmePackagesExist(t *testing.T) {
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := readmePkg.FindAllString(string(body), -1)
	if len(pkgs) == 0 {
		t.Fatal("README.md names no internal/ packages: the layout map is gone")
	}
	seen := map[string]bool{}
	for _, pkg := range pkgs {
		if seen[pkg] {
			continue
		}
		seen[pkg] = true
		if fi, err := os.Stat(pkg); err != nil || !fi.IsDir() {
			t.Errorf("README.md names %s, which is not a package directory", pkg)
		}
	}
	// And the inverse: every package directory under internal/ is in
	// the README's layout map, so the map cannot silently rot.
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() && !seen["internal/"+e.Name()] {
			t.Errorf("internal/%s is not mentioned in README.md's layout map", e.Name())
		}
	}
}

var (
	knobRef = regexp.MustCompile(`\bCOFS(?:Params)?\.([A-Z][A-Za-z0-9]*)`)
	flagRef = regexp.MustCompile("`-([a-z-]+)")
)

// TestDocsNameRealKnobs: every COFSParams.X or COFS.X the README or a
// docs page names is a field of params.COFSParams, and the README's
// tool-flag table lists exactly the flags bench.ToolFlags registers.
func TestDocsNameRealKnobs(t *testing.T) {
	knobs := reflect.TypeOf(params.COFSParams{})
	for _, file := range docFiles(t) {
		body, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		for _, m := range knobRef.FindAllStringSubmatch(string(body), -1) {
			if _, ok := knobs.FieldByName(m[1]); !ok {
				t.Errorf("%s names %s, which is not a field of params.COFSParams", file, m[0])
			}
		}
	}

	fs := flag.NewFlagSet("tool", flag.ContinueOnError)
	bench.BindToolFlags(fs)
	body, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(body), "| flag | effect |\n")
	if !ok {
		t.Fatal("README.md has no tool-flag table")
	}
	table, _, _ = strings.Cut(table, "\n\n")
	listed := map[string]bool{}
	for _, row := range strings.Split(table, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 3 || strings.Trim(cells[1], " -") == "" {
			continue // the separator row
		}
		for _, ref := range flagRef.FindAllStringSubmatch(cells[1], -1) {
			listed[ref[1]] = true
			if fs.Lookup(ref[1]) == nil {
				t.Errorf("README.md's flag table lists -%s, which bench.ToolFlags does not register", ref[1])
			}
		}
	}
	fs.VisitAll(func(f *flag.Flag) {
		if !listed[f.Name] {
			t.Errorf("bench.ToolFlags registers -%s, which README.md's flag table does not list", f.Name)
		}
	})
}

// testFuncs returns the Test* and Benchmark* function names declared in
// the _test.go files of the package directory dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, path := range files {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Benchmark")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}

var ciQuoted = regexp.MustCompile(`'[^']*'|[^\s']+`)

// TestDocsCIPatternsNameRealTests: every -run and -bench pattern of a
// `go test` in the CI workflow selects something. Each |-alternative —
// its part before the first / when it names subtests — must match a
// Test (for -run) or Benchmark (for -bench) function of the packages
// the command lists, so a deleted or renamed test cannot leave a CI
// step quietly running nothing. A -run beside a -bench only keeps the
// tests from running and is not checked.
func TestDocsCIPatternsNameRealTests(t *testing.T) {
	body, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for n, line := range strings.Split(string(body), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok {
			continue
		}
		cmd, _, _ = strings.Cut(cmd, "&&")
		pats := map[string]string{}
		var pkgs []string
		args := ciQuoted.FindAllString(cmd, -1)
		for i := 0; i < len(args); i++ {
			arg := strings.Trim(args[i], "'")
			switch {
			case (arg == "-run" || arg == "-bench") && i+1 < len(args):
				pats[arg] = strings.Trim(args[i+1], "'")
				i++
			case arg == "." || strings.HasPrefix(arg, "./"):
				pkgs = append(pkgs, arg)
			}
		}
		if _, ok := pats["-bench"]; ok {
			delete(pats, "-run")
		}
		if len(pats) == 0 {
			continue
		}
		var funcs []string
		for _, pkg := range pkgs {
			funcs = append(funcs, testFuncs(t, pkg)...)
		}
		for flagName, pat := range pats {
			prefix := "Test"
			if flagName == "-bench" {
				prefix = "Benchmark"
			}
			for _, alt := range strings.Split(pat, "|") {
				alt, _, _ = strings.Cut(alt, "/")
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", n+1, flagName, alt, err)
					continue
				}
				found := false
				for _, fn := range funcs {
					if strings.HasPrefix(fn, prefix) && re.MatchString(fn) {
						found = true
						break
					}
				}
				checked++
				if !found {
					t.Errorf("ci.yml:%d: %s alternative %q matches no %s function in %v", n+1, flagName, alt, prefix, pkgs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml names no go test patterns: the workflow moved or the parser broke")
	}
}
