package analysis

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The suppression layer has its own failure modes — a typo'd analyzer
// name, a reason-less directive, a directive outliving the finding it
// silenced — and each must fail loud, as a metaName diagnostic that is
// itself unsuppressible. These tests drive runModule over tiny in-memory
// packages with a stub analyzer standing in for lockiter.

// stubLockIter flags every call to a function literally named "leak".
var stubLockIter = &Analyzer{
	Name: "lockiter",
	Doc:  "test stub: flags leak() calls",
	Run: func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "leak" {
					pass.Reportf(call.Pos(), "stub finding")
				}
				return true
			})
		}
		return nil
	},
}

// checkSource runs stubLockIter over src and returns the diagnostics.
func checkSource(t *testing.T, src string) []Diagnostic {
	t.Helper()
	dir := t.TempDir()
	fn := filepath.Join(dir, "p.go")
	if err := os.WriteFile(fn, []byte(src), 0o666); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkg, err := TypeCheck(fset, "p", []string{fn}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Fatalf("test source does not type-check: %v", terr)
	}
	diags, err := runModule([]*Package{pkg}, []*Analyzer{stubLockIter})
	if err != nil {
		t.Fatal(err)
	}
	return diags
}

func wantOne(t *testing.T, diags []Diagnostic, analyzer, substr string) {
	t.Helper()
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != analyzer {
		t.Errorf("diagnostic from %q, want %q", d.Analyzer, analyzer)
	}
	if !strings.Contains(d.Message, substr) {
		t.Errorf("message %q does not contain %q", d.Message, substr)
	}
}

const prologue = "package p\n\nfunc leak() {}\nfunc fine() {}\n\n"

func TestSuppressTrailing(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	leak() //memexvet:ignore lockiter audited: stub case
}
`)
	if len(diags) != 0 {
		t.Fatalf("trailing directive did not suppress: %v", diags)
	}
}

func TestSuppressLineAbove(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	//memexvet:ignore lockiter audited: stub case
	leak()
}
`)
	if len(diags) != 0 {
		t.Fatalf("line-above directive did not suppress: %v", diags)
	}
}

func TestSuppressionDoesNotReachFurther(t *testing.T) {
	// Two lines below the directive is out of range: the finding survives
	// and the directive is stale — both must surface.
	diags := checkSource(t, prologue+`func f() {
	//memexvet:ignore lockiter audited: stub case

	leak()
}
`)
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want finding + stale directive: %v", len(diags), diags)
	}
}

func TestUnknownAnalyzerFailsLoud(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	fine() //memexvet:ignore lockitr typo in the analyzer name
}
`)
	wantOne(t, diags, metaName, `unknown analyzer "lockitr"`)
}

func TestMissingReasonFailsLoud(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	leak() //memexvet:ignore lockiter
}
`)
	// The malformed directive suppresses nothing: the finding survives
	// alongside the meta diagnostic.
	if len(diags) != 2 {
		t.Fatalf("got %d diagnostics, want finding + malformed directive: %v", len(diags), diags)
	}
	var sawMeta, sawFinding bool
	for _, d := range diags {
		switch d.Analyzer {
		case metaName:
			sawMeta = true
			if !strings.Contains(d.Message, "missing reason") {
				t.Errorf("meta message %q does not mention the missing reason", d.Message)
			}
		case "lockiter":
			sawFinding = true
		}
	}
	if !sawMeta || !sawFinding {
		t.Errorf("want one meta and one lockiter diagnostic, got %v", diags)
	}
}

func TestMissingNameFailsLoud(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	fine() //memexvet:ignore
}
`)
	wantOne(t, diags, metaName, "missing analyzer name")
}

func TestStaleSuppressionFailsLoud(t *testing.T) {
	diags := checkSource(t, prologue+`func f() {
	fine() //memexvet:ignore lockiter line no longer triggers
}
`)
	wantOne(t, diags, metaName, "stale //memexvet:ignore")
}

func TestStaleNotReportedWhenAnalyzerDidNotRun(t *testing.T) {
	// An epochbatch directive cannot be judged stale by a run that only
	// included lockiter.
	diags := checkSource(t, prologue+`func f() {
	fine() //memexvet:ignore epochbatch one page's records, staged by the caller
}
`)
	if len(diags) != 0 {
		t.Fatalf("directive for an analyzer that did not run was reported: %v", diags)
	}
}

func TestOneDirectivePerFinding(t *testing.T) {
	// A single directive must not blanket two findings on different lines.
	diags := checkSource(t, prologue+`func f() {
	leak() //memexvet:ignore lockiter audited: stub case
	leak()
}
`)
	wantOne(t, diags, "lockiter", "stub finding")
}
