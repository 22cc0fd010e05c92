package lint

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

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	DepOnly    bool
	Standard   bool
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load builds and type-checks the packages matching patterns (resolved
// in dir) for analysis. It shells out to `go list -export -deps` so
// dependencies come from the build cache as compiled export data — the
// same loading strategy go vet uses, without an x/tools dependency.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("lint: go list: %v\n%s", err, stderr.Bytes())
	}

	var targets []*listPackage
	exports := make(map[string]string) // import path -> export file
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		if !lp.DepOnly {
			targets = append(targets, lp)
		}
	}

	fset := token.NewFileSet()
	gc := exportData(fset, "gc", exports)
	var pkgs []*Package
	for _, lp := range targets {
		imp := mappedImporter{importMap: lp.ImportMap, gc: gc}
		pkg, err := checkFiles(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// checkFiles parses one package's files (names relative to dir unless
// absolute) and type-checks them as importPath. Both drivers share it:
// Load with go list's view of a package, RunUnit with the go command's
// vet unit, which also carries _test.go files.
func checkFiles(fset *token.FileSet, imp types.Importer, importPath, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		if !filepath.IsAbs(name) {
			name = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", importPath, err)
	}
	return &Package{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// NewTypesInfo allocates the types.Info maps the analyzers consume.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

// exportData returns the compiler's importer over a map of compiled
// export files (package path -> file), the way the gc toolchain's own
// tools resolve dependencies.
func exportData(fset *token.FileSet, compiler string, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
}

// mappedImporter applies a package's import map (source import path ->
// package path, for vendored or test-variant packages) before
// delegating to the export-data importer.
type mappedImporter struct {
	importMap map[string]string
	gc        types.Importer
}

func (m mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := m.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return m.gc.Import(path)
}
