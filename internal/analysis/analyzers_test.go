package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"testing"
)

func TestLockIter(t *testing.T)   { runGolden(t, LockIter, "testdata/src/lockiter") }
func TestEpochBatch(t *testing.T) { runGolden(t, EpochBatch, "testdata/src/epochbatch") }
func TestAtomicBan(t *testing.T)  { runGolden(t, AtomicBan, "testdata/src/atomicban") }

// TestTreeClean is the suite's one runner and the merge gate: the three
// analyzers and the module-wide reader check, run over every file of the
// repository, _test.go files included, must come back empty.
// Reintroducing a PageRank-style lock-hold, a torn batch, an
// atomic.AddUint64 or an export nothing reads fails it, and
// so does a //memexvet:ignore directive that no longer silences anything.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export over the whole module")
	}
	pkgs, err := load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	diags, err := runModule(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestReader runs the suite and the module-wide reader check over a
// fixture module with an internal/ package, a command that reads it, a
// bench/ package that does not count, and test files that do not either.
// The test files are analysed all the same: an analyzer finding and a
// stale directive in one of them are reported. The wants are read from
// every file of the fixture, so a file the loader drops fails the test.
func TestReader(t *testing.T) {
	dir, err := filepath.Abs("testdata/src/reader")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := load(dir, "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not type-check: %v", terr)
		}
	}
	diags, err := runModule(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".go" {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, fset, files, diags)
}
