package analysis

import "testing"

func TestLockIter(t *testing.T)   { RunGolden(t, LockIter, "testdata/src/lockiter") }
func TestDetMap(t *testing.T)     { RunGolden(t, DetMap, "testdata/src/detmap") }
func TestEpochBatch(t *testing.T) { RunGolden(t, EpochBatch, "testdata/src/epochbatch") }
func TestDetSched(t *testing.T)   { RunGolden(t, DetSched, "testdata/src/detsched") }
func TestAtomicBan(t *testing.T)  { RunGolden(t, AtomicBan, "testdata/src/atomicban") }

// TestTreeClean is the merge gate in test form: the suite run over the
// whole repository must come back empty. Reintroducing a PageRank-style
// lock-hold, an unsorted encodeCounts, a torn batch, or an
// atomic.AddUint64 fails this test (and the memexvet CI job) immediately.
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
		diags, err := RunPackage(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("%s", d)
		}
	}
}
