package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// Golden-test harness in the style of x/tools' analysistest: fixture
// packages under testdata/ carry `// want "regexp"` comments on the lines
// an analyzer must flag; the harness runs the analyzer through the full
// suppression layer and diffs findings against expectations, so fixtures
// exercise true positives, sanctioned patterns, and //memexvet:ignore in
// one place.

// wantRE extracts the quoted regexps of a `// want "a"` or a backquoted
// `// want ...` comment (strconv.Unquote handles both forms).
var wantRE = regexp.MustCompile("//\\s*want((?:\\s+(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`))+)")

var wantArgRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

// runGolden type-checks the one-package fixture directory and verifies
// that analyzer (plus the suppression meta-checks) produces exactly the
// diagnostics its `// want` comments promise.
func runGolden(t *testing.T, analyzer *Analyzer, dir string) {
	t.Helper()

	filenames, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(filenames) == 0 {
		t.Fatalf("no fixture files in %s (%v)", dir, err)
	}
	sort.Strings(filenames)

	pkg, err := loadFixture(dir, filenames)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture does not type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}

	diags, err := runModule([]*Package{pkg}, []*Analyzer{analyzer})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkg.Fset, pkg.Files, diags)
}

// checkWants verifies that diags are exactly what the files' `// want`
// comments promise.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := make(map[key][]*regexp.Regexp)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				k := key{pos.Filename, pos.Line}
				for _, q := range wantArgRE.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}

	matched := make(map[*regexp.Regexp]bool)
	for _, d := range diags {
		k := key{d.Pos.Filename, d.Pos.Line}
		found := false
		for _, re := range wants[k] {
			if !matched[re] && re.MatchString(d.Message) {
				matched[re] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for _, re := range res {
			if !matched[re] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", k.file, k.line, re)
			}
		}
	}
}

// loadFixture type-checks fixture files, resolving their (stdlib-only)
// imports through `go list -export` like the real loader.
func loadFixture(dir string, filenames []string) (*Package, error) {
	fset := token.NewFileSet()
	imports := make(map[string]bool)
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ImportsOnly)
		if err != nil {
			return nil, err
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if path != "unsafe" {
				imports[path] = true
			}
		}
	}

	exports := make(map[string]string)
	if len(imports) > 0 {
		patterns := make([]string, 0, len(imports))
		for p := range imports {
			patterns = append(patterns, p)
		}
		sort.Strings(patterns)
		listed, err := goList(dir, patterns)
		if err != nil {
			return nil, fmt.Errorf("resolving fixture imports: %w", err)
		}
		for _, lp := range listed {
			if lp.Export != "" {
				exports[lp.ImportPath] = lp.Export
			}
		}
	}

	fset = token.NewFileSet()
	return TypeCheck(fset, "fixture", filenames, exportImporter(fset, exports, nil))
}
