package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
)

// The framework below mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, positional diagnostics) so the checkers port across if the
// module ever takes on x/tools, but is implemented on the standard library
// only: this repo is dependency-free by policy.

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //memexvet:ignore directives. Lower-case, no spaces.
	Name string

	// Doc is a one-paragraph description of the invariant enforced.
	Doc string

	// Run applies the check to a package, reporting findings via
	// pass.Reportf. It returns an error only for internal failures,
	// never for findings.
	Run func(pass *Pass) error
}

// A Pass carries one package's syntax and type information to an
// Analyzer.Run and collects its diagnostics.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full memexvet suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{LockIter, EpochBatch, AtomicBan}
}

// metaName is the pseudo-analyzer that owns diagnostics about the
// suppression mechanism itself (malformed or stale directives). It is not
// a valid target for //memexvet:ignore: problems with suppressions cannot
// themselves be suppressed.
const metaName = "memexvet"

// ignorePrefix introduces a suppression directive comment.
const ignorePrefix = "memexvet:ignore"

// A suppression is one parsed //memexvet:ignore directive.
type suppression struct {
	pos      token.Position // position of the comment
	target   int            // the line the directive governs
	analyzer string         // analyzer it silences ("" if malformed)
	reason   string
	problem  string // non-empty if malformed; becomes a metaName diagnostic
	used     bool
}

// runModule runs analyzers over each of pkgs, and the reader check over
// them all, and returns the surviving diagnostics sorted by position:
// findings no //memexvet:ignore directive silences, plus one metaName
// diagnostic for every malformed directive and for every stale one. The
// reader check finds nothing in a package outside a module, such as a
// golden fixture, so there the run is the analyzers' alone.
func runModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	byFile := make(map[string][]Diagnostic)
	for _, d := range checkReaders(pkgs) {
		byFile[d.Pos.Filename] = append(byFile[d.Pos.Filename], d)
	}
	ran := map[string]bool{readerName: true}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var out []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.ImportPath, a.Name, err)
			}
		}
		for _, f := range pkg.Files {
			diags = append(diags, byFile[pkg.Fset.Position(f.Pos()).Filename]...)
		}
		out = append(out, suppress(pkg, diags, ran)...)
	}
	sortDiagnostics(out)
	return out, nil
}

// suppress drops the findings of pkg a directive silences and adds one
// metaName diagnostic for every malformed directive, and for every unused
// one whose check is in ran.
//
// A directive written as a trailing comment silences findings of the
// named analyzer on its own line; a standalone directive comment silences
// findings on the line directly below it. Each directive governs exactly
// one line — it cannot blanket a region.
func suppress(pkg *Package, diags []Diagnostic, ran map[string]bool) []Diagnostic {
	// Validate directives against the full suite and the reader check,
	// not just the checks being run, so a partial run never reports a
	// legitimate directive as naming an unknown analyzer.
	valid := map[string]bool{readerName: true}
	for _, a := range All() {
		valid[a.Name] = true
	}
	sups := scanSuppressions(pkg.Fset, pkg.Files, valid)

	var out []Diagnostic
	for _, d := range diags {
		if s := matchSuppression(sups, d); s != nil {
			s.used = true
			continue
		}
		out = append(out, d)
	}
	for _, s := range sups {
		switch {
		case s.problem != "":
			out = append(out, Diagnostic{Pos: s.pos, Analyzer: metaName, Message: s.problem})
		case !s.used && ran[s.analyzer]:
			// Only declare a directive stale when its check actually
			// ran; a partial run proves nothing about the others.
			out = append(out, Diagnostic{
				Pos:      s.pos,
				Analyzer: metaName,
				Message: fmt.Sprintf("stale //memexvet:ignore: no %s finding on this or the next line; delete the directive",
					s.analyzer),
			})
		}
	}
	return out
}

func sortDiagnostics(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return out[i].Analyzer < out[j].Analyzer
	})
}

// scanSuppressions extracts every //memexvet:ignore directive (well-formed
// or not) from the package's comments.
func scanSuppressions(fset *token.FileSet, files []*ast.File, valid map[string]bool) []*suppression {
	var sups []*suppression
	srcs := make(map[string][]byte)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimPrefix(text, "/*")
				text = strings.TrimSuffix(text, "*/")
				trimmed := strings.TrimSpace(text)
				if !strings.HasPrefix(trimmed, ignorePrefix) {
					continue
				}
				s := &suppression{pos: fset.Position(c.Pos())}
				s.target = s.pos.Line
				if standaloneComment(srcs, s.pos) {
					s.target = s.pos.Line + 1
				}
				rest := strings.TrimSpace(strings.TrimPrefix(trimmed, ignorePrefix))
				name, reason, _ := strings.Cut(rest, " ")
				reason = strings.TrimSpace(reason)
				switch {
				case name == "":
					s.problem = "malformed //memexvet:ignore: missing analyzer name (want //memexvet:ignore <analyzer> <reason>)"
				case !valid[name]:
					s.problem = fmt.Sprintf("malformed //memexvet:ignore: unknown analyzer %q (want one of %s)",
						name, strings.Join(validNames(valid), ", "))
				case reason == "":
					s.problem = fmt.Sprintf("malformed //memexvet:ignore %s: missing reason; every suppression must say why the finding is safe", name)
				default:
					s.analyzer = name
					s.reason = reason
				}
				sups = append(sups, s)
			}
		}
	}
	return sups
}

func validNames(valid map[string]bool) []string {
	names := make([]string, 0, len(valid))
	for n := range valid {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// standaloneComment reports whether only whitespace precedes the comment
// on its line (i.e. it is not trailing a statement). On any read failure
// the comment is treated as trailing.
func standaloneComment(srcs map[string][]byte, pos token.Position) bool {
	src, ok := srcs[pos.Filename]
	if !ok {
		src, _ = os.ReadFile(pos.Filename)
		srcs[pos.Filename] = src
	}
	if pos.Offset > len(src) {
		return false
	}
	for i := pos.Offset - 1; i >= 0 && src[i] != '\n'; i-- {
		if src[i] != ' ' && src[i] != '\t' {
			return false
		}
	}
	return true
}

// matchSuppression returns the first well-formed directive that silences d,
// or nil.
func matchSuppression(sups []*suppression, d Diagnostic) *suppression {
	for _, s := range sups {
		if s.problem != "" || s.analyzer != d.Analyzer {
			continue
		}
		if s.pos.Filename == d.Pos.Filename && d.Pos.Line == s.target {
			return s
		}
	}
	return nil
}
