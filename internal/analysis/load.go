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
	Dir        string
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
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
	Error      *struct{ Err string }
}

// Load resolves patterns (as the go tool would, from dir) and returns the
// matched packages, parsed and type-checked. Dependencies are imported
// from export data; only matched packages get syntax. Test files are not
// included (`go list`'s GoFiles excludes them), matching `go vet`'s
// compilation-unit view of a package's library sources.
func Load(dir string, patterns ...string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string)
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}

	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)

	var pkgs []*Package
	for _, lp := range listed {
		if lp.DepOnly || lp.Standard {
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
		pkg, err := TypeCheck(fset, lp.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		pkg.Dir = lp.Dir
		if lp.Module != nil {
			pkg.Module = lp.Module.Path
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := []string{
		"list", "-e", "-deps", "-export",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module,Error",
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
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
// export files produced by `go list -export`.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
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
