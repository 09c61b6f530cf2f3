// Command memexvet runs the repo's invariant analyzers (lockiter, detmap,
// epochbatch, detsched, atomicban — all syntactic; see internal/analysis
// for each contract and for the ones held by construction instead) over
// Go packages. It accepts //memexvet:ignore reader directives but does not
// run the module-wide reader check, which TestTreeClean in
// internal/analysis runs.
//
// Standalone, as CI runs it:
//
//	go run ./cmd/memexvet ./...
//
// Diagnostics print one per line to stderr; the exit status is 2 if any
// finding survives suppression, 1 on internal error, 0 on a clean tree.
// Two output flags reshape findings for machines:
//
//	-json     emit the findings as a JSON array on stdout
//	-github   emit GitHub Actions workflow commands (::error file=…) on
//	          stdout so findings annotate the PR diff inline
//
// The binary also speaks enough of cmd/vet's unitchecker protocol to be
// used as `go vet -vettool=$(which memexvet) ./...`, which additionally
// covers _test.go files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"strings"

	"memex/internal/analysis"
)

func main() {
	args := os.Args[1:]

	// Vettool handshake: `go vet` probes the tool's version and its
	// supported flags (a JSON list; this suite takes none) before running.
	for _, a := range args {
		switch a {
		case "-V=full", "-V":
			fmt.Println("memexvet version 1 (memex invariant suite)")
			return
		case "-flags":
			fmt.Println("[]")
			return
		}
	}

	// Unitchecker mode: go vet invokes the tool once per package with a
	// single *.cfg argument.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(unitcheck(args[0]))
	}

	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	githubOut := flag.Bool("github", false, "emit GitHub Actions ::error annotations on stdout")
	flag.Parse()

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memexvet:", err)
		os.Exit(1)
	}
	exit := 0
	var all []analysis.Diagnostic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "memexvet: %s: type error: %v\n", pkg.ImportPath, terr)
			exit = 1
		}
		diags, err := analysis.RunPackage(pkg, analysis.All())
		if err != nil {
			fmt.Fprintf(os.Stderr, "memexvet: %s: %v\n", pkg.ImportPath, err)
			exit = 1
			continue
		}
		for _, d := range diags {
			fmt.Fprintln(os.Stderr, d)
			all = append(all, d)
			if exit == 0 {
				exit = 2
			}
		}
	}
	if *jsonOut {
		emitJSON(os.Stdout, all)
	}
	if *githubOut {
		emitGitHub(os.Stdout, all)
	}
	os.Exit(exit)
}

// jsonDiag is the stable machine-readable finding shape for -json.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// emitJSON writes every finding as one JSON array (always an array, even
// when empty, so consumers need no null handling).
func emitJSON(w io.Writer, diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:     relPath(d.Pos.Filename),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(out)
}

// emitGitHub writes one workflow command per finding so the Actions
// runner renders it inline on the PR diff. Messages are escaped per the
// workflow-command rules (%, CR, LF have %-encodings).
func emitGitHub(w io.Writer, diags []analysis.Diagnostic) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	for _, d := range diags {
		fmt.Fprintf(w, "::error file=%s,line=%d,col=%d,title=memexvet(%s)::%s\n",
			relPath(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, esc.Replace(d.Message))
	}
}

// relPath rewrites an absolute diagnostic path relative to the working
// directory — the form GitHub annotations and editors want — falling back
// to the original when the file lies elsewhere.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	rel, err := filepath.Rel(wd, p)
	if err != nil || strings.HasPrefix(rel, "..") {
		return p
	}
	return rel
}

// vetConfig is the subset of cmd/go's vet configuration file we consume.
type vetConfig struct {
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOutput                string
	VetxOnly                  bool
	SucceedOnTypecheckFailure bool
}

func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memexvet:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "memexvet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The driver requires the facts output to exist even though this
	// suite exports none.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "memexvet:", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	imp := unsafeImporter{importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})}

	var goFiles []string
	for _, f := range cfg.GoFiles {
		// Fixture-style assembly stubs etc. are not our concern.
		if filepath.Ext(f) == ".go" {
			goFiles = append(goFiles, f)
		}
	}
	pkg, err := analysis.TypeCheck(fset, cfg.ImportPath, goFiles, imp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "memexvet:", err)
		return 1
	}
	if len(pkg.TypeErrors) > 0 {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "memexvet: %s: type error: %v\n", cfg.ImportPath, terr)
		}
		return 1
	}

	diags, err := analysis.RunPackage(pkg, analysis.All())
	if err != nil {
		fmt.Fprintf(os.Stderr, "memexvet: %s: %v\n", cfg.ImportPath, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

type unsafeImporter struct{ inner types.Importer }

func (i unsafeImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.inner.Import(path)
}
