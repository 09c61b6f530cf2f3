package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Loading. The module has no dependency on golang.org/x/tools/go/packages,
// so type information comes from the toolchain itself: `go list -deps
// -export` compiles (or reuses from the build cache) export data for every
// package in the dependency closure, and the gc importer reads it back.
// Target packages — the ones actually analyzed — are re-parsed and
// type-checked from source so analyzers see full syntax with comments.

// A Package is one loaded, type-checked target package.
type Package struct {
	ImportPath string
	Module     string // the module's path; "" for a package checked alone
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// TypeErrors holds soft type-checking errors. Analysis proceeds with
	// partial information; callers decide whether these are fatal.
	TypeErrors []error
}

// listedPackage is the subset of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	ForTest    string
	ImportMap  map[string]string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// load resolves patterns (as the go tool would, from dir) and returns the
// matched packages with their _test.go files, parsed and type-checked;
// TestTreeClean runs the suite over what it returns. Dependencies are
// imported from export data; only matched packages get syntax.
//
// `go list -test` lists, beside a package p with tests, its test variant
// "p [p.test]" (p's files and its in-package _test.go files), the external
// test package "p_test [p.test]" and the generated main "p.test". The
// variant replaces p, so each file is analysed once; the generated main is
// not source and is skipped. Each package is type-checked under its plain
// import path, resolving its imports through its ImportMap (an external
// test imports the variant of the package it tests).
func load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, append([]string{"-test"}, patterns...))
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	replaced := make(map[string]bool) // packages a listed test variant replaces
	testMain := make(map[string]bool) // the generated test mains
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.ForTest != "" {
			testMain[p.ForTest+".test"] = true
		}
		if plainPath(p.ImportPath) == p.ForTest {
			replaced[p.ForTest] = true
		}
	}

	// Packages with no ImportMap share one importer, so each export file
	// is read once.
	fset := token.NewFileSet()
	shared := exportImporter(fset, exports, nil)
	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard || replaced[lp.ImportPath] || testMain[lp.ImportPath] {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if len(lp.GoFiles) == 0 {
			continue
		}
		var filenames []string
		for _, f := range lp.GoFiles {
			filenames = append(filenames, filepath.Join(lp.Dir, f))
		}
		imp := shared
		if len(lp.ImportMap) > 0 {
			imp = exportImporter(fset, exports, lp.ImportMap)
		}
		pkg, err := TypeCheck(fset, plainPath(lp.ImportPath), filenames, imp)
		if err != nil {
			return nil, err
		}
		if lp.Module != nil {
			pkg.Module = lp.Module.Path
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// plainPath strips a test variant's " [p.test]" suffix from a listed
// import path.
func plainPath(importPath string) string {
	path, _, _ := strings.Cut(importPath, " ")
	return path
}

// goList runs `go list -e -deps -export` with args (flags, then patterns)
// from dir.
func goList(dir string, args []string) ([]*listedPackage, error) {
	cmd := exec.Command("go", append([]string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,ForTest,ImportMap,Standard,DepOnly,Module,Error",
	}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", args, err, stderr.Bytes())
	}
	var listed []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		listed = append(listed, lp)
	}
	return listed, nil
}

// exportImporter returns a types.Importer that resolves imports through the
// export files produced by `go list -export`, keyed by listed import path;
// importMap maps an import to the listed package it resolves to.
func exportImporter(fset *token.FileSet, exports, importMap map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return unsafeImporter{gc}
}

// unsafeImporter handles package unsafe, which has no export data.
type unsafeImporter struct{ inner types.Importer }

func (i unsafeImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.inner.Import(path)
}

// TypeCheck parses filenames and type-checks them as one package, using
// imp to resolve imports. Type errors are collected into
// Package.TypeErrors rather than aborting, so analysis can proceed on
// partially broken code.
func TypeCheck(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, fn := range filenames {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", fn, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		ImportPath: path,
		Fset:       fset,
		Files:      files,
		TypesInfo: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		},
	}
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, fset, files, pkg.TypesInfo)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
