package analysis

import (
	"go/ast"
	"testing"
)

func TestLockIter(t *testing.T)   { runGolden(t, LockIter, "testdata/src/lockiter") }
func TestDetMap(t *testing.T)     { runGolden(t, DetMap, "testdata/src/detmap") }
func TestEpochBatch(t *testing.T) { runGolden(t, EpochBatch, "testdata/src/epochbatch") }
func TestDetSched(t *testing.T)   { runGolden(t, DetSched, "testdata/src/detsched") }
func TestAtomicBan(t *testing.T)  { runGolden(t, AtomicBan, "testdata/src/atomicban") }

// TestTreeClean is the merge gate in test form: the suite and the
// module-wide reader check run over the whole repository must come back
// empty. Reintroducing a PageRank-style lock-hold, an unsorted
// encodeCounts, a torn batch, or an atomic.AddUint64 fails this test (and
// the memexvet CI job) immediately; so does an export nothing reads, which
// only this test checks.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes go list -export over the whole module")
	}
	pkgs, err := Load("../..", "./...")
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

// TestReader runs the module-wide reader check over a fixture module with
// an internal/ package, a command that reads it, a bench/ package that
// does not count, and a test file that does not either.
func TestReader(t *testing.T) {
	pkgs, err := Load("testdata/src/reader", "./...")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Fatalf("fixture does not type-check: %v", terr)
		}
		files = append(files, pkg.Files...)
	}
	diags, err := runModule(pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, pkgs[0].Fset, files, diags)
}
